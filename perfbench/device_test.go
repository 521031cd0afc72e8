package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"e2lshos"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/dataset"
)

func smallSIFT(t *testing.T, n, queries int) *dataset.Dataset {
	t.Helper()
	spec, err := dataset.PaperSpec(dataset.SIFT, 0, n, queries)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	d, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFileDeviceMatchesMemBackend builds the same index over the default
// in-memory backend and over the benchmark's file device and requires
// bitwise-identical neighbors, distances and logical N_IO per query, with
// and without the vectored I/O engine (which reads through ReadBlocks).
func TestFileDeviceMatchesMemBackend(t *testing.T) {
	d := smallSIFT(t, 3000, 40)
	cfg := e2lshos.Config{Sigma: sigma}
	for _, tc := range []struct {
		name string
		opts []e2lshos.StorageOption
	}{
		{"fanout", nil},
		{"ioengine", []e2lshos.StorageOption{e2lshos.WithIOEngine(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := e2lshos.NewStorageIndex(d.Vectors, cfg, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := newFileDevice(filepath.Join(t.TempDir(), "blocks"), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			file, err := e2lshos.NewStorageIndex(d.Vectors, cfg, append(tc.opts, e2lshos.WithStorageBackend(dev))...)
			if err != nil {
				t.Fatal(err)
			}
			if mem.StorageBytes() != file.StorageBytes() {
				t.Fatalf("storage bytes: mem %d, file %d", mem.StorageBytes(), file.StorageBytes())
			}
			readsBefore := dev.reads.Load()
			memSt := make([]e2lshos.Stats, len(d.Queries))
			fileSt := make([]e2lshos.Stats, len(d.Queries))
			ctx := context.Background()
			want, _, err := mem.BatchSearch(ctx, d.Queries, e2lshos.WithK(topK), e2lshos.WithStatsInto(memSt))
			if err != nil {
				t.Fatal(err)
			}
			got, agg, err := file.BatchSearch(ctx, d.Queries, e2lshos.WithK(topK), e2lshos.WithStatsInto(fileSt))
			if err != nil {
				t.Fatal(err)
			}
			for qi := range want {
				w, g := want[qi].Neighbors, got[qi].Neighbors
				if len(w) != len(g) {
					t.Fatalf("query %d: %d neighbors on mem, %d on file", qi, len(w), len(g))
				}
				for i := range w {
					if w[i].ID != g[i].ID || math.Float64bits(w[i].Dist) != math.Float64bits(g[i].Dist) {
						t.Fatalf("query %d rank %d: mem %v, file %v", qi, i, w[i], g[i])
					}
				}
				if memSt[qi].IOs() != fileSt[qi].IOs() {
					t.Fatalf("query %d: N_IO mem %d, file %d", qi, memSt[qi].IOs(), fileSt[qi].IOs())
				}
			}
			if tc.opts == nil {
				// Without an engine every logical read reaches the device.
				if reads := dev.reads.Load() - readsBefore; reads != int64(agg.IOs()) {
					t.Fatalf("device read %d blocks for %d logical I/Os", reads, agg.IOs())
				}
			}
		})
	}
}

// TestFileDeviceReadBlocks checks the vectored read path: adjacent runs
// coalesce into one operation, unwritten blocks read as zeros.
func TestFileDeviceReadBlocks(t *testing.T) {
	dev, err := newFileDevice(filepath.Join(t.TempDir(), "blocks"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	for a := 1; a <= 4; a++ {
		if err := dev.WriteBlock(blockstore.Addr(a), []byte{byte(a)}); err != nil {
			t.Fatal(err)
		}
	}
	addrs := []blockstore.Addr{1, 2, 3, 7}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, blockstore.BlockSize)
		bufs[i][0] = 0xff
	}
	ops, err := dev.ReadBlocks(addrs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 2 || dev.ops.Load() != 2 || dev.reads.Load() != 4 {
		t.Fatalf("ops %d (counted %d), reads %d; want 2, 2, 4", ops, dev.ops.Load(), dev.reads.Load())
	}
	for i, want := range []byte{1, 2, 3, 0} {
		if bufs[i][0] != want {
			t.Fatalf("block %d: first byte %d, want %d", addrs[i], bufs[i][0], want)
		}
	}
	if dev.NumBlocks() != 5 || dev.writes.Load() != 4 {
		t.Fatalf("NumBlocks %d, writes %d; want 5, 4", dev.NumBlocks(), dev.writes.Load())
	}
}
