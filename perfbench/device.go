package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/telemetry"
)

// fileDevice is the benchmark's block device: a blockstore.Backend over one
// file on the disk filesystem, read and written with positional syscalls
// (pread/pwrite through os.File.ReadAt/WriteAt). Block a lives at offset
// (a-1)*BlockSize. Repeated reads are served by the OS page cache, so the
// latencies it reports are this host's kernel path, not an SSD's.
//
// It counts what the index asks of it: blocks read, physical read
// operations (one per adjacent run, the same rule as every backend), and
// blocks written. With timing on it also records per-operation latency,
// busy time (wall time with at least one operation in flight) and, when a
// recorder is attached, one span per operation.
type fileDevice struct {
	f      *os.File
	shard  int
	blocks atomic.Uint64

	reads  atomic.Int64 // blocks read
	ops    atomic.Int64 // physical read operations
	writes atomic.Int64 // blocks written

	timed   atomic.Bool
	rec     *recorder
	readNs  atomic.Int64
	writeNs atomic.Int64
	readLat telemetry.Histogram

	busyMu    sync.Mutex
	inflight  int           // guarded by busyMu
	busySince time.Time     // guarded by busyMu
	busy      time.Duration // guarded by busyMu
}

var _ blockstore.Backend = (*fileDevice)(nil)

// newFileDevice creates (truncating) the device file at path.
func newFileDevice(path string, shard int) (*fileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	d := &fileDevice{f: f, shard: shard}
	d.blocks.Store(1)
	return d, nil
}

// Close releases the file.
func (d *fileDevice) Close() error { return d.f.Close() }

// setTiming turns latency, busy-time and span recording on or off.
func (d *fileDevice) setTiming(on bool, rec *recorder) {
	d.rec = rec
	d.timed.Store(on)
}

// begin marks an operation in flight when timing is on.
func (d *fileDevice) begin() (time.Time, bool) {
	if !d.timed.Load() {
		return time.Time{}, false
	}
	now := time.Now()
	d.busyMu.Lock()
	if d.inflight == 0 {
		d.busySince = now
	}
	d.inflight++
	d.busyMu.Unlock()
	return now, true
}

// end closes an operation opened by begin.
func (d *fileDevice) end(t0 time.Time, write bool) {
	now := time.Now()
	d.busyMu.Lock()
	d.inflight--
	if d.inflight == 0 {
		d.busy += now.Sub(d.busySince)
	}
	d.busyMu.Unlock()
	dur := now.Sub(t0)
	name := "blockstore.read"
	if write {
		name = "blockstore.write"
		d.writeNs.Add(int64(dur))
	} else {
		d.readNs.Add(int64(dur))
		d.readLat.Observe(dur)
	}
	d.rec.add(span{Name: name, Shard: d.shard}, t0, now)
}

// busyTime reports the accumulated busy time.
func (d *fileDevice) busyTime() time.Duration {
	d.busyMu.Lock()
	defer d.busyMu.Unlock()
	return d.busy
}

// readRange reads n adjacent blocks starting at a with one pread. Blocks
// allocated but never written read as zeros.
func (d *fileDevice) readRange(a blockstore.Addr, n int, buf []byte) error {
	want := n * blockstore.BlockSize
	got, err := d.f.ReadAt(buf[:want], int64(a-1)*blockstore.BlockSize)
	if err == io.EOF {
		clear(buf[got:want])
		return nil
	}
	if err != nil {
		return fmt.Errorf("device: read blocks %d..%d: %w", a, a+blockstore.Addr(n)-1, err)
	}
	return nil
}

func (d *fileDevice) ReadBlock(a blockstore.Addr, buf []byte) error {
	if len(buf) < blockstore.BlockSize {
		return fmt.Errorf("device: read buffer of %d bytes too small", len(buf))
	}
	t0, timed := d.begin()
	err := d.readRange(a, 1, buf)
	if timed {
		d.end(t0, false)
	}
	d.reads.Add(1)
	d.ops.Add(1)
	return err
}

// ReadBlocks coalesces runs of adjacent addresses (blockstore.NextRun, the
// rule every backend shares) into single preads.
func (d *fileDevice) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	if len(addrs) != len(bufs) {
		return 0, fmt.Errorf("device: %d addresses but %d buffers", len(addrs), len(bufs))
	}
	ops := 0
	var scratch []byte
	for i := 0; i < len(addrs); {
		j := blockstore.NextRun(addrs, i)
		n := j - i
		t0, timed := d.begin()
		var err error
		if n == 1 {
			err = d.readRange(addrs[i], 1, bufs[i])
		} else {
			if cap(scratch) < n*blockstore.BlockSize {
				scratch = make([]byte, n*blockstore.BlockSize)
			}
			err = d.readRange(addrs[i], n, scratch)
			for k := 0; err == nil && k < n; k++ {
				copy(bufs[i+k][:blockstore.BlockSize], scratch[k*blockstore.BlockSize:])
			}
		}
		if timed {
			d.end(t0, false)
		}
		ops++
		d.reads.Add(int64(n))
		d.ops.Add(1)
		if err != nil {
			return ops, err
		}
		i = j
	}
	return ops, nil
}

func (d *fileDevice) WriteBlock(a blockstore.Addr, data []byte) error {
	var block [blockstore.BlockSize]byte
	copy(block[:], data)
	t0, timed := d.begin()
	_, err := d.f.WriteAt(block[:], int64(a-1)*blockstore.BlockSize)
	if timed {
		d.end(t0, true)
	}
	if err != nil {
		return fmt.Errorf("device: write block %d: %w", a, err)
	}
	d.writes.Add(1)
	for {
		cur := d.blocks.Load()
		if uint64(a) < cur || d.blocks.CompareAndSwap(cur, uint64(a)+1) {
			return nil
		}
	}
}

func (d *fileDevice) NumBlocks() uint64 { return d.blocks.Load() }

// deviceCounters is a snapshot of one or more devices' counters.
type deviceCounters struct {
	reads, ops, writes int64
	readNs, writeNs    int64
	busy               time.Duration
}

func (c deviceCounters) sub(o deviceCounters) deviceCounters {
	return deviceCounters{
		reads: c.reads - o.reads, ops: c.ops - o.ops, writes: c.writes - o.writes,
		readNs: c.readNs - o.readNs, writeNs: c.writeNs - o.writeNs, busy: c.busy - o.busy,
	}
}

// sumDevices snapshots and sums the counters of devs.
func sumDevices(devs []*fileDevice) deviceCounters {
	var c deviceCounters
	for _, d := range devs {
		c.reads += d.reads.Load()
		c.ops += d.ops.Load()
		c.writes += d.writes.Load()
		c.readNs += d.readNs.Load()
		c.writeNs += d.writeNs.Load()
		c.busy += d.busyTime()
	}
	return c
}
