package e2lshos

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"e2lshos/internal/autotune"
	"e2lshos/internal/telemetry"
)

// poolDataset is a small clustered set for the querier-pool tests.
func poolDataset(t testing.TB, n int) *Dataset {
	t.Helper()
	d, err := GenerateDataset(DatasetSpec{
		Name: "pool", N: n, Queries: 24, Dim: 16,
		Clusters: 6, Spread: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// poolsOf returns every querier pool behind e: its own, or each shard's.
func poolsOf(t *testing.T, e Engine) []*querierPool {
	t.Helper()
	if x, ok := e.(*ShardedIndex); ok {
		var out []*querierPool
		for _, s := range x.engines {
			out = append(out, poolsOf(t, s)...)
		}
		return out
	}
	core, ok := e.(engineCore)
	if !ok {
		t.Fatalf("%T has no querier pool", e)
	}
	return []*querierPool{core.queriers()}
}

// idleQueriers snapshots a pool's idle list.
func idleQueriers(p *querierPool) []querier {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]querier(nil), p.idle...)
}

// attachedHooks reports the trace and controller an idle querier's searchers
// still hold; both must be nil once the querier is back in its pool.
func attachedHooks(qr querier) (*telemetry.Trace, *autotune.Ctl) {
	switch q := qr.(type) {
	case memQuerier:
		return q.s.Trace(), q.s.Controller()
	case *diskQuerier:
		if tr, c := q.par.Trace(), q.par.Controller(); tr != nil || c != nil {
			return tr, c
		}
		if q.seq != nil {
			return q.seq.Trace(), q.seq.Controller()
		}
		return nil, nil
	case qalshQuerier:
		return nil, q.s.Controller()
	case *srsQuerier:
		return nil, nil
	}
	panic(fmt.Sprintf("unknown querier %T", qr))
}

// TestDimensionMismatchIsTypedError: a wrong-length query is a typed error on
// every engine's Search and BatchSearch, never a panic — inside a BatchSearch
// worker goroutine a panic would take the whole process down.
func TestDimensionMismatchIsTypedError(t *testing.T) {
	ctx := context.Background()
	d := poolDataset(t, 600)
	cfg := Config{Sigma: 16}
	mem, err := NewInMemoryIndex(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewStorageIndex(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srsIx, err := NewSRSIndex(d.Vectors, 0)
	if err != nil {
		t.Fatal(err)
	}
	qalshIx, err := NewQALSHIndex(d.Vectors, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(d.Vectors, 2, PlaceHash, StorageShardBuilder(cfg))
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		e    Engine
	}{
		{"inmemory", mem}, {"storage", disk}, {"srs", srsIx}, {"qalsh", qalshIx}, {"sharded", sharded},
	}
	bad := [][]float32{{1, 2, 3}, make([]float32, 17), nil}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			for _, q := range bad {
				if _, _, err := tc.e.Search(ctx, q, WithK(3)); !errors.Is(err, ErrDimension) {
					t.Errorf("Search(dim %d): err = %v, want ErrDimension", len(q), err)
				}
				batch := [][]float32{d.Queries[0], q, d.Queries[1]}
				if _, _, err := tc.e.BatchSearch(ctx, batch, WithK(3), WithWorkers(3)); !errors.Is(err, ErrDimension) {
					t.Errorf("BatchSearch(dim %d): err = %v, want ErrDimension", len(q), err)
				}
			}
			// The engine still answers well-formed queries afterwards.
			if _, _, err := tc.e.BatchSearch(ctx, d.Queries[:4], WithK(3)); err != nil {
				t.Fatalf("well-formed batch after rejects: %v", err)
			}
		})
	}
}

// poolCall is one Search or BatchSearch call of the reuse sequence.
type poolCall struct {
	batch bool
	opts  []SearchOption
}

// poolSequence interleaves single and batch calls over the knob mixes a
// server sees: k, fan-out 1/4/16, budget and multi-probe.
func poolSequence() []poolCall {
	var calls []poolCall
	for i, fanout := range []int{16, 1, 4, 16, 4, 1} {
		k := 1 + 3*(i%3)
		opts := []SearchOption{WithK(k), WithFanout(fanout)}
		switch i % 3 {
		case 1:
			opts = append(opts, WithBudget(40))
		case 2:
			opts = append(opts, WithMultiProbe(1+i%2))
		}
		calls = append(calls,
			poolCall{batch: true, opts: opts},
			poolCall{batch: false, opts: opts},
			poolCall{batch: true, opts: append(opts[:len(opts):len(opts)], WithWorkers(1))},
		)
	}
	return calls
}

// TestQuerierReuseMatchesFreshEngine pins the querier pool's equivalence: an
// engine whose warmed queriers are reused across interleaved Search and
// BatchSearch calls with changing knobs answers every call — neighbours,
// distances and Stats, bit for bit — exactly as a freshly built engine does,
// with telemetry (every query traced) and autotune on. After every call each
// pooled querier must hold no trace and no controller, so no later call can
// write into an earlier call's.
func TestQuerierReuseMatchesFreshEngine(t *testing.T) {
	ctx := context.Background()
	d := poolDataset(t, 1500)
	cfg := Config{Sigma: 16}
	builders := []struct {
		name  string
		build func() (Engine, error)
	}{
		{"inmemory", func() (Engine, error) { return NewInMemoryIndex(d.Vectors, cfg) }},
		{"storage", func() (Engine, error) { return NewStorageIndex(d.Vectors, cfg) }},
		{"srs", func() (Engine, error) { return NewSRSIndex(d.Vectors, 0) }},
		{"qalsh", func() (Engine, error) { return NewQALSHIndex(d.Vectors, 0, 0) }},
		{"sharded", func() (Engine, error) {
			return NewShardedIndex(d.Vectors, 2, PlaceHash, StorageShardBuilder(cfg))
		}},
	}
	instrument := func(t *testing.T, e Engine) {
		t.Helper()
		if err := e.(interface {
			EnableTelemetry(...TelemetryOption) error
		}).EnableTelemetry(WithTracing(1)); err != nil {
			t.Fatal(err)
		}
		if err := e.(interface {
			EnableAutotune(...AutotuneOption) error
		}).EnableAutotune(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(e Engine, c poolCall, queries [][]float32) ([]Result, []Stats, Stats, error) {
		per := make([]Stats, len(queries))
		opts := append(c.opts[:len(c.opts):len(c.opts)], WithStatsInto(per))
		if c.batch {
			res, st, err := e.BatchSearch(ctx, queries, opts...)
			return res, per, st, err
		}
		res, st, err := e.Search(ctx, queries[0], opts...)
		return []Result{res}, per, st, err
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			reused, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			instrument(t, reused)
			for ci, c := range poolSequence() {
				queries := d.Queries[(ci*5)%16 : (ci*5)%16+8]
				if !c.batch {
					queries = queries[:1]
				}
				fresh, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				instrument(t, fresh)
				gotRes, gotPer, gotSt, err := run(reused, c, queries)
				if err != nil {
					t.Fatalf("call %d on the reused engine: %v", ci, err)
				}
				wantRes, wantPer, wantSt, err := run(fresh, c, queries)
				if err != nil {
					t.Fatalf("call %d on a fresh engine: %v", ci, err)
				}
				if gotSt != wantSt {
					t.Fatalf("call %d: aggregate Stats\nreused %+v\nfresh  %+v", ci, gotSt, wantSt)
				}
				for qi := range wantRes {
					if len(gotRes[qi].Neighbors) != len(wantRes[qi].Neighbors) {
						t.Fatalf("call %d query %d: reused %v, fresh %v", ci, qi, gotRes[qi].Neighbors, wantRes[qi].Neighbors)
					}
					for ni, nb := range wantRes[qi].Neighbors {
						if gotRes[qi].Neighbors[ni] != nb {
							t.Fatalf("call %d query %d neighbour %d: reused %+v, fresh %+v", ci, qi, ni, gotRes[qi].Neighbors[ni], nb)
						}
					}
					if gotPer[qi] != wantPer[qi] {
						t.Fatalf("call %d query %d: per-query Stats\nreused %+v\nfresh  %+v", ci, qi, gotPer[qi], wantPer[qi])
					}
				}
				idle := 0
				for _, p := range poolsOf(t, reused) {
					for _, qr := range idleQueriers(p) {
						idle++
						if tr, ctl := attachedHooks(qr); tr != nil || ctl != nil {
							t.Fatalf("call %d: pooled %T still holds trace %p, controller %p", ci, qr, tr, ctl)
						}
					}
				}
				if idle == 0 {
					t.Fatalf("call %d left no querier in the pool", ci)
				}
			}
		})
	}
}

// insertIndex builds a StorageIndex whose ID space leaves room for inserts
// (n just above a power of two) and warms its querier pool.
func insertIndex(t *testing.T) (*StorageIndex, *Dataset) {
	t.Helper()
	d := poolDataset(t, 1100)
	ix, err := NewStorageIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := ix.Search(ctx, d.Queries[0], WithK(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.BatchSearch(ctx, d.Queries[:8], WithK(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(ctx, d.Queries[1], WithK(3), WithMultiProbe(2)); err != nil {
		t.Fatal(err)
	}
	if len(idleQueriers(&ix.querierPool)) == 0 {
		t.Fatal("warm-up left no querier in the pool")
	}
	return ix, d
}

// freshVectors draws n vectors unlike any in the dataset.
func freshVectors(n, dim int, seed uint64) [][]float32 {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*4 - 2
		}
		out[i] = v
	}
	return out
}

// checkFindsOwn asserts that searching each inserted vector returns its own
// ID at distance 0, through Search, BatchSearch and the multi-probe prober.
func checkFindsOwn(t *testing.T, ix *StorageIndex, vecs [][]float32, ids []uint32) {
	t.Helper()
	ctx := context.Background()
	for _, opts := range [][]SearchOption{{WithK(1)}, {WithK(1), WithMultiProbe(2)}} {
		res, _, err := ix.BatchSearch(ctx, vecs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if len(r.Neighbors) == 0 || r.Neighbors[0].ID != ids[i] || r.Neighbors[0].Dist != 0 {
				t.Fatalf("batch: inserted vector %d (id %d) came back as %v", i, ids[i], r.Neighbors)
			}
		}
		for i, v := range vecs {
			r, _, err := ix.Search(ctx, v, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Neighbors) == 0 || r.Neighbors[0].ID != ids[i] || r.Neighbors[0].Dist != 0 {
				t.Fatalf("search: inserted vector %d (id %d) came back as %v", i, ids[i], r.Neighbors)
			}
		}
	}
}

// TestPooledSearchersSeeInserts: searchers warmed before a burst of inserts
// sized their dedup arenas for the old n. Once inserts grow n past it, the
// pooled searchers must still find every inserted vector as its own ID at
// distance 0.
func TestPooledSearchersSeeInserts(t *testing.T) {
	ix, d := insertIndex(t)
	vecs := freshVectors(300, d.Dim, 1)
	ids := make([]uint32, len(vecs))
	for i, v := range vecs {
		id, err := ix.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if ids[len(ids)-1] < uint32(d.N()) {
		t.Fatalf("inserts did not grow the ID space past n=%d", d.N())
	}
	checkFindsOwn(t, ix, vecs, ids)
}

// TestPooledSearchersConcurrentInserts is the race variant: searches keep
// checking queriers out of and back into the pool while inserts grow n.
func TestPooledSearchersConcurrentInserts(t *testing.T) {
	ix, d := insertIndex(t)
	vecs := freshVectors(200, d.Dim, 2)
	ids := make([]uint32, len(vecs))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				q := d.Queries[(g*7+i)%len(d.Queries)]
				var err error
				switch i % 3 {
				case 0:
					_, _, err = ix.Search(ctx, q, WithK(3), WithFanout(1+i%8))
				case 1:
					_, _, err = ix.BatchSearch(ctx, d.Queries[:4], WithK(3), WithWorkers(2))
				default:
					_, _, err = ix.Search(ctx, q, WithK(3), WithMultiProbe(1))
				}
				if err != nil && ctx.Err() == nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
			}
		}(g)
	}
	for i, v := range vecs {
		id, err := ix.Insert(v)
		if err != nil {
			t.Error(err)
			break
		}
		ids[i] = id
	}
	cancel()
	wg.Wait()
	if t.Failed() {
		return
	}
	checkFindsOwn(t, ix, vecs, ids)
}

// TestBatchSearchSteadyStateAllocBytes is the allocation gate on the pooled
// read path: once warm, a single-query BatchSearch must allocate less than
// one dedup arena (4·n bytes) — it reuses a pooled searcher instead of
// building one, and starts no worker goroutine for a one-query batch.
func TestBatchSearchSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	ctx := context.Background()
	d := poolDataset(t, 4000)
	mem, err := NewInMemoryIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewStorageIndex(d.Vectors, Config{Sigma: 16})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 200
	arena := uint64(4 * d.N())
	for _, tc := range []struct {
		name string
		e    Engine
	}{{"inmemory", mem}, {"storage", disk}} {
		t.Run(tc.name, func(t *testing.T) {
			batches := make([][][]float32, len(d.Queries))
			for i := range batches {
				batches[i] = d.Queries[i : i+1]
			}
			search := func(i int) {
				if _, _, err := tc.e.BatchSearch(ctx, batches[i%len(batches)], WithK(10)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range batches {
				search(i)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				search(i)
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("%d bytes allocated per single-query BatchSearch (dedup arena %d bytes)", perCall, arena)
			if perCall >= arena {
				t.Errorf("steady-state BatchSearch allocates %d bytes per call, not below one dedup arena (%d bytes)", perCall, arena)
			}
		})
	}
}
