package diskindex

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"e2lshos/internal/blockstore"
	"e2lshos/internal/faultinject"
)

// faultyCopy clones an index's blocks into a fresh store behind a
// fault-injecting backend, so queries run against deterministic storage
// faults without an I/O engine or cache in the way.
func faultyCopy(t *testing.T, ix *Index, sch faultinject.Schedule) (*Index, *faultinject.Backend) {
	t.Helper()
	inner := blockstore.NewMemBackend()
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a <= blockstore.Addr(ix.Store().NumBlocks()); a++ {
		if err := ix.Store().ReadBlock(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := inner.WriteBlock(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	fb := faultinject.Wrap(inner, sch)
	clone := *ix
	clone.store = blockstore.NewWithBackend(fb)
	return &clone, fb
}

// TestSyncSearchDegradesOnStorageFaults: storage faults skip the affected
// chains instead of failing the query — every query answers, the ones that
// lost chains say so via Partial, and FaultedReads accounts exactly for the
// injected failures (no engine, no retries: one injected EIO is one faulted
// read is one skipped chain).
func TestSyncSearchDegradesOnStorageFaults(t *testing.T) {
	d, ix, _ := testSetup(t, 800, 8, DefaultOptions())
	for _, failAfter := range []int{1, 3, 16} {
		faulty, fb := faultyCopy(t, ix, faultinject.Schedule{Seed: 1, FailAfter: failAfter})
		s := faulty.NewSearcher()
		faulted, partials := 0, 0
		for _, q := range d.Queries {
			_, st, err := s.Search(q, 1)
			if err != nil {
				t.Fatalf("failAfter=%d: query failed instead of degrading: %v", failAfter, err)
			}
			faulted += st.FaultedReads
			partials += st.Partial
			if st.FaultedReads != st.SkippedChains {
				t.Fatalf("failAfter=%d: FaultedReads=%d SkippedChains=%d, want equal on the sequential path",
					failAfter, st.FaultedReads, st.SkippedChains)
			}
			if (st.Partial == 1) != (st.SkippedChains > 0) {
				t.Fatalf("failAfter=%d: Partial=%d with SkippedChains=%d", failAfter, st.Partial, st.SkippedChains)
			}
		}
		if partials == 0 {
			t.Errorf("failAfter=%d: dead device produced no partial results", failAfter)
		}
		if got := fb.Counters().Failures(); int64(faulted) != got {
			t.Errorf("failAfter=%d: Stats.FaultedReads total %d != injected failures %d",
				failAfter, faulted, got)
		}
	}
}

// TestParallelSearchDegradesOnStorageFaults: the pool path keeps a probe's
// partially collected candidates when its chain is cut short, and answers
// every query.
func TestParallelSearchDegradesOnStorageFaults(t *testing.T) {
	d, ix, _ := testSetup(t, 800, 8, DefaultOptions())
	faulty, fb := faultyCopy(t, ix, faultinject.Schedule{Seed: 2, FailAfter: 2})
	ps, err := faulty.NewParallelSearcher(4)
	if err != nil {
		t.Fatal(err)
	}
	faulted, partials := 0, 0
	for _, q := range d.Queries {
		_, st, err := ps.Search(q, 1)
		if err != nil {
			t.Fatalf("parallel query failed instead of degrading: %v", err)
		}
		faulted += st.FaultedReads
		partials += st.Partial
	}
	if partials == 0 {
		t.Error("dead device produced no partial results")
	}
	if got := fb.Counters().Failures(); int64(faulted) != got {
		t.Errorf("Stats.FaultedReads total %d != injected failures %d", faulted, got)
	}
}

// TestCancellationStillPropagates: degraded mode is for storage faults
// only; a canceled context aborts the query with its error, exactly as
// before.
func TestCancellationStillPropagates(t *testing.T) {
	d, ix, _ := testSetup(t, 500, 8, DefaultOptions())
	s := ix.NewSearcher()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st, err := s.SearchContext(ctx, d.Queries[0], 1); err != context.Canceled {
		t.Fatalf("canceled search: err=%v", err)
	} else if st.Partial != 0 {
		t.Fatal("cancellation must not masquerade as a partial result")
	}
}

func TestHealthySearchAfterManyReads(t *testing.T) {
	// A fault budget larger than the workload must never trigger, and a
	// healthy run must never claim partial results.
	d, ix, _ := testSetup(t, 500, 8, DefaultOptions())
	faulty, _ := faultyCopy(t, ix, faultinject.Schedule{Seed: 3, FailAfter: 1 << 30})
	s := faulty.NewSearcher()
	for _, q := range d.Queries {
		_, st, err := s.Search(q, 1)
		if err != nil {
			t.Fatalf("unexpected error from healthy wrapped store: %v", err)
		}
		if st.Partial != 0 || st.FaultedReads != 0 || st.SkippedChains != 0 {
			t.Fatalf("healthy run reported degradation: %+v", st)
		}
	}
}

// inflightBackend wraps a backend, holding every read for a short delay so
// concurrent reads overlap, and records the most reads ever in flight.
type inflightBackend struct {
	blockstore.Backend
	delay    time.Duration
	inflight atomic.Int64
	peak     atomic.Int64
}

func (b *inflightBackend) ReadBlock(a blockstore.Addr, buf []byte) error {
	n := b.inflight.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(b.delay)
	err := b.Backend.ReadBlock(a, buf)
	b.inflight.Add(-1)
	return err
}

func (b *inflightBackend) ReadBlocks(addrs []blockstore.Addr, bufs [][]byte) (int, error) {
	return blockstore.ReadBlocksSerial(b, addrs, bufs)
}

// TestParallelSearcherFanoutBound: a round walks at most fanout chains at
// once — with one walker on the calling goroutine and fanout−1 helpers —
// and with fanout > 1 the reads really overlap. Both a searcher built with
// the fan-out and a reused one switched to it with SetFanout are checked.
func TestParallelSearcherFanoutBound(t *testing.T) {
	d, ix, _ := testSetup(t, 2000, 8, DefaultOptions())
	backend := &inflightBackend{Backend: blockstore.NewMemBackend(), delay: 200 * time.Microsecond}
	buf := make([]byte, blockstore.BlockSize)
	for a := blockstore.Addr(1); a < blockstore.Addr(ix.Store().NumBlocks()); a++ {
		if err := ix.Store().ReadBlock(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := backend.WriteBlock(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	slow := *ix
	slow.store = blockstore.NewWithBackend(backend)
	reused, err := slow.NewParallelSearcher(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, fanout := range []int{1, 2, 4} {
		fresh, err := slow.NewParallelSearcher(fanout)
		if err != nil {
			t.Fatal(err)
		}
		reused.SetFanout(fanout)
		for _, ps := range []*ParallelSearcher{fresh, reused} {
			backend.peak.Store(0)
			for _, q := range d.Queries[:6] {
				if _, _, err := ps.SearchContext(ctx, q, 5); err != nil {
					t.Fatal(err)
				}
			}
			peak := backend.peak.Load()
			if peak > int64(fanout) {
				t.Errorf("fanout %d: %d reads in flight at once", fanout, peak)
			}
			if fanout > 1 && peak < 2 {
				t.Errorf("fanout %d: reads never overlapped", fanout)
			}
		}
	}
}
