package e2lshos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/memindex"
	"e2lshos/internal/telemetry"
)

// Engine is the one query interface all four ANN engines satisfy:
// InMemoryIndex, StorageIndex, SRSIndex and QALSHIndex. Engine-generic code
// (benchmark harnesses, serving layers, shards) programs against it and
// never needs to know which algorithm answers.
//
// Engines differ in which knobs they honor; options an engine has no use
// for are ignored, so the same option list can drive heterogeneous engines:
//
//	knob            InMemory  Storage  SRS  QALSH
//	WithK              ✓         ✓      ✓     ✓
//	WithBudget         ✓         ✓      ✓     —
//	WithFanout         —         ✓      —     —
//	WithMultiProbe     ✓         ✓      —     —
//	WithWorkers      (batch)  (batch) (batch) (batch)
type Engine interface {
	// Search answers one top-k query. ctx cancels the radius-ladder walk
	// between rounds; on cancellation the neighbors found so far are
	// returned together with ctx.Err().
	Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error)
	// BatchSearch answers a query batch on up to WithWorkers workers (the
	// calling goroutine is one of them), each running its share of the
	// batch on one warmed searcher checked out of the engine's pool.
	// Results are positionally aligned with queries; Stats is the batch
	// aggregate. On cancellation or error the queries answered so
	// far — not necessarily a contiguous prefix, since workers interleave
	// — keep their results, unanswered slots are zero Results, and the
	// first error is returned.
	BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error)
}

// ErrDimension reports a query whose length is not the dimensionality of the
// indexed vectors. Search and BatchSearch return it, wrapped with both
// lengths, before any query of the call runs; match it with errors.Is.
var ErrDimension = errors.New("e2lshos: query dimension mismatch")

// checkDim returns ErrDimension when q does not have dim components.
func checkDim(dim int, q []float32) error {
	if len(q) != dim {
		return fmt.Errorf("%w: query has %d dimensions, index has %d", ErrDimension, len(q), dim)
	}
	return nil
}

// checkDims is checkDim over a batch, naming the first offending query.
func checkDims(dim int, queries [][]float32) error {
	for i, q := range queries {
		if err := checkDim(dim, q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// Compile-time interface conformance for all four engines.
var (
	_ Engine = (*InMemoryIndex)(nil)
	_ Engine = (*StorageIndex)(nil)
	_ Engine = (*SRSIndex)(nil)
	_ Engine = (*QALSHIndex)(nil)
)

// Stats aggregates what one query — or one batch — did, in the units the
// paper's analysis needs (Table 4, Figs 3–8). Engines leave counters they
// do not track at zero; Queries counts the queries folded in, so per-query
// means are Mean* methods away.
//
//lsh:counters
type Stats struct {
	// Queries is the number of queries aggregated into this Stats.
	Queries int
	// Radii is the number of (R,c)-NN ladder rounds executed (r̄·Queries).
	Radii int
	// Probes counts bucket/table lookups attempted.
	Probes int
	// NonEmptyProbes counts lookups that hit a non-empty bucket; with the
	// paper's DRAM occupancy bitmaps only these cost I/O.
	NonEmptyProbes int
	// EntriesScanned counts bucket or tree entries examined.
	EntriesScanned int
	// Checked counts full-dimensional distance computations.
	Checked int
	// Duplicates counts entries skipped because the object was already seen.
	Duplicates int
	// FPRejected counts entries dropped by the storage fingerprint check
	// (§5.2): u-bit collisions that are not 32-bit collisions.
	FPRejected int
	// TableIOs counts on-storage hash-table block reads.
	TableIOs int
	// BucketIOs counts on-storage bucket block reads, including chains.
	BucketIOs int
	// CacheHits and CacheMisses count block-cache outcomes on StorageIndex
	// reads when the index was built WithBlockCache (zero otherwise). Hits
	// never reach the backend, so CacheMisses is the effective N_IO of a
	// cached engine; IOs() keeps reporting the logical count for
	// comparability with uncached runs.
	CacheHits   int
	CacheMisses int
	// PrefetchedBlocks counts blocks the WithReadahead pool pulled into the
	// cache between radius rounds on behalf of these queries.
	PrefetchedBlocks int
	// CoalescedReads counts backend reads the WithIOEngine submission layer
	// saved by merging runs of adjacent block addresses into single
	// vectored operations (zero without an engine). IOs() keeps reporting
	// the logical count; physical backend reads are
	// IOs() − CacheHits − CoalescedReads with a cache attached (a dedup
	// join is counted inside CacheHits), and
	// IOs() − DedupedReads − CoalescedReads without one.
	CoalescedReads int
	// DedupedReads counts reads satisfied by joining another query's
	// in-flight backend read, singleflight style (zero without an engine).
	DedupedReads int
	// PhysicalReads counts the backend operations the WithIOEngine
	// submission layer actually issued after coalescing and dedup (zero
	// without an engine). With an engine attached this is the true device
	// operation count; IOs() keeps reporting the logical count.
	PhysicalReads int
	// FaultedReads counts block reads that still failed after the storage
	// tier's retries (zero on healthy devices and on the in-memory
	// engines). Cancellation is not a fault.
	FaultedReads int
	// SkippedChains counts bucket chains abandoned because a block was
	// unreadable: the degraded-mode skips behind FaultedReads.
	SkippedChains int
	// Partial counts queries that skipped at least one chain and thus
	// served a possibly-incomplete result (per query it is 0 or 1; Merge
	// makes it the partial-query count alongside Queries).
	Partial int
	// IOsAtInf is the paper's N_IO,∞ for the in-memory reference: what the
	// query would cost on storage with unlimited block size.
	IOsAtInf int
	// NodesVisited counts R-tree nodes expanded (SRS).
	NodesVisited int
	// EarlyStopped counts queries ended by SRS's chi-square test rather
	// than the budget or tree exhaustion.
	EarlyStopped int
	// RoundsSkipped counts ladder rounds the autotune controller cut
	// relative to the full schedule (recall-target early stops and
	// latency-budget stops; zero without EnableAutotune).
	RoundsSkipped int
	// BudgetExhausted counts queries the controller stopped because their
	// latency budget could not cover another round.
	BudgetExhausted int
	// DegradedKnobs counts knob-degradation steps the controller took
	// mid-query (readahead off, multi-probe down, fan-out down, candidate
	// budget down) to stay within latency budgets.
	DegradedKnobs int
}

// IOs returns the total storage I/O count (the paper's N_IO).
func (s Stats) IOs() int { return s.TableIOs + s.BucketIOs }

// Merge folds o into s.
//
//lsh:foldall Stats
func (s *Stats) Merge(o Stats) {
	s.Queries += o.Queries
	s.Radii += o.Radii
	s.Probes += o.Probes
	s.NonEmptyProbes += o.NonEmptyProbes
	s.EntriesScanned += o.EntriesScanned
	s.Checked += o.Checked
	s.Duplicates += o.Duplicates
	s.FPRejected += o.FPRejected
	s.TableIOs += o.TableIOs
	s.BucketIOs += o.BucketIOs
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PrefetchedBlocks += o.PrefetchedBlocks
	s.CoalescedReads += o.CoalescedReads
	s.DedupedReads += o.DedupedReads
	s.PhysicalReads += o.PhysicalReads
	s.FaultedReads += o.FaultedReads
	s.SkippedChains += o.SkippedChains
	s.Partial += o.Partial
	s.IOsAtInf += o.IOsAtInf
	s.NodesVisited += o.NodesVisited
	s.EarlyStopped += o.EarlyStopped
	s.RoundsSkipped += o.RoundsSkipped
	s.BudgetExhausted += o.BudgetExhausted
	s.DegradedKnobs += o.DegradedKnobs
}

// MeanRadii returns the paper's r̄, the average radii searched per query.
func (s Stats) MeanRadii() float64 { return s.perQuery(s.Radii) }

// MeanIOs returns the average N_IO per query.
func (s Stats) MeanIOs() float64 { return s.perQuery(s.IOs()) }

// MeanChecked returns the average distance computations per query.
func (s Stats) MeanChecked() float64 { return s.perQuery(s.Checked) }

func (s Stats) perQuery(total int) float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(total) / float64(s.Queries)
}

// DefaultFanout is the concurrent read fan-out StorageIndex uses when
// WithFanout is not given; 8–32 approximates the paper's deep device queues.
const DefaultFanout = 16

// searchSettings is the resolved option set of one Search or BatchSearch.
type searchSettings struct {
	k          int
	fanout     int
	budget     int
	multiProbe int
	workers    int
	tuning     SearchTuning
	statsInto  []Stats
}

// SearchOption tunes one Search or BatchSearch call. Options replace the
// old positional (q, k, fanout|budget) signatures; see the Engine table for
// which engines honor which.
type SearchOption func(*searchSettings)

// WithK sets the number of neighbors to return (default 1, the paper's
// c²-ANNS setting).
func WithK(k int) SearchOption { return func(s *searchSettings) { s.k = k } }

// WithFanout sets StorageIndex's concurrent reads per query (default
// DefaultFanout). Other engines ignore it.
func WithFanout(n int) SearchOption { return func(s *searchSettings) { s.fanout = n } }

// WithBudget caps verified candidates: per radius for the E2LSH engines
// (the paper's S = σ·L accuracy knob, no rebuild needed) and per query for
// SRS (the paper's T'). Zero keeps the engine's built-in budget. QALSH
// ignores it — its budget is derived from the build-time β.
func WithBudget(s int) SearchOption { return func(st *searchSettings) { st.budget = s } }

// WithMultiProbe probes each hash table at its base bucket plus t perturbed
// neighbors (§8 extension), buying recall without enlarging the index. Only
// the E2LSH engines honor it; on StorageIndex it selects the sequential
// prober, so WithFanout is ignored when t > 0.
func WithMultiProbe(t int) SearchOption { return func(s *searchSettings) { s.multiProbe = t } }

// WithWorkers sets BatchSearch's goroutine pool size (default GOMAXPROCS).
// Search ignores it.
func WithWorkers(n int) SearchOption { return func(s *searchSettings) { s.workers = n } }

// WithTuning attaches a per-query SLO contract (recall target, latency
// budget, degradation policy). It has effect only on engines with
// EnableAutotune on; without a tuner the contract is silently ignored, like
// any other unsupported knob.
func WithTuning(t SearchTuning) SearchOption { return func(s *searchSettings) { s.tuning = t } }

// WithRecallTarget sets only the tuning's recall target; see SearchTuning.
func WithRecallTarget(r float64) SearchOption {
	return func(s *searchSettings) { s.tuning.RecallTarget = r }
}

// WithLatencyBudget sets only the tuning's latency budget; see SearchTuning.
func WithLatencyBudget(d time.Duration) SearchOption {
	return func(s *searchSettings) { s.tuning.LatencyBudget = d }
}

// WithDegradePolicy sets only the tuning's degradation policy.
func WithDegradePolicy(p DegradePolicy) SearchOption {
	return func(s *searchSettings) { s.tuning.Degrade = p }
}

// WithStatsInto asks for per-query stats: query i of the batch (index 0 for
// Search) writes its individual Stats into dst[i], in addition to the
// aggregate return. Queries beyond len(dst) are not recorded; unanswered
// slots keep their previous contents.
func WithStatsInto(dst []Stats) SearchOption {
	return func(s *searchSettings) { s.statsInto = dst }
}

// resolveSettings applies opts over the defaults and validates the result.
func resolveSettings(opts []SearchOption) (searchSettings, error) {
	s := searchSettings{k: 1, fanout: DefaultFanout}
	for _, o := range opts {
		o(&s)
	}
	switch {
	case s.k < 1:
		return s, fmt.Errorf("e2lshos: k must be at least 1, got %d", s.k)
	case s.fanout < 1:
		return s, fmt.Errorf("e2lshos: fanout must be at least 1, got %d", s.fanout)
	case s.budget < 0:
		return s, fmt.Errorf("e2lshos: negative candidate budget %d", s.budget)
	case s.multiProbe < 0:
		return s, fmt.Errorf("e2lshos: negative multi-probe count %d", s.multiProbe)
	case s.workers < 0:
		return s, fmt.Errorf("e2lshos: negative worker count %d", s.workers)
	case s.tuning.RecallTarget < 0 || s.tuning.RecallTarget >= 1:
		return s, fmt.Errorf("e2lshos: recall target must be in [0, 1), got %g", s.tuning.RecallTarget)
	case s.tuning.LatencyBudget < 0:
		return s, fmt.Errorf("e2lshos: negative latency budget %v", s.tuning.LatencyBudget)
	case s.tuning.Degrade > DegradeStop:
		return s, fmt.Errorf("e2lshos: unknown degrade policy %d", s.tuning.Degrade)
	}
	return s, nil
}

// querier is one engine's reusable query context: a warmed searcher with its
// scratch (dedup arena, projection and block buffers, top-k heap). Each
// engine keeps its idle queriers in a querierPool. Search and every
// BatchSearch worker check one out, apply the call's knobs to it with
// configure, and check it back in when done, which clears the query's trace
// and autotune controller. The pool is not keyed by knobs: any querier
// serves any knob mix, so no sequence of calls grows the pool past the
// engine's concurrency. dst, when non-nil, provides the backing array for
// the returned Result's neighbors (its contents are overwritten); BatchSearch
// hands each query a distinct slab segment so the per-query steady state
// allocates nothing. A nil dst asks the querier to allocate fresh backing.
// Not safe for concurrent use: one goroutine holds a querier at a time.
type querier interface {
	configure(s searchSettings)
	query(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (Result, Stats, error)
}

// querierPool is an engine's free list of idle warmed queriers, most recently
// used first, so a checkout gets the querier whose buffers are likeliest to
// still be cached. It keeps at most eight idle queriers per P — room for the
// workers of several concurrent batches — and drops the rest, so a burst of
// concurrency leaves a bounded footprint behind.
type querierPool struct {
	mu   sync.Mutex
	idle []querier //lsh:guardedby mu
}

// queriers returns the pool itself; engines embed querierPool, so this is
// how the shared search machinery reaches it through engineCore.
func (p *querierPool) queriers() *querierPool { return p }

// get pops the most recently used idle querier (nil when none is idle).
func (p *querierPool) get() querier {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	qr := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return qr
}

// put clears qr's trace and controller — both belong to the query that just
// finished, and the controller goes back to the tuner's own pool — and keeps
// qr idle unless eight per P already are.
func (p *querierPool) put(qr querier) {
	if ts, ok := qr.(traceSetter); ok {
		ts.setTrace(nil)
	}
	if cs, ok := qr.(ctlSetter); ok {
		cs.setController(nil)
	}
	limit := 8 * runtime.GOMAXPROCS(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < limit {
		p.idle = append(p.idle, qr)
	}
}

// checkout takes an idle querier from e's pool, building one when none is
// idle, and applies the call's knobs to it. Return it with put.
func checkout(e engineCore, set searchSettings) (querier, error) {
	qr := e.queriers().get()
	if qr == nil {
		var err error
		if qr, err = e.newQuerier(); err != nil {
			return nil, err
		}
	}
	qr.configure(set)
	return qr, nil
}

// engineCore is what each engine contributes to the shared Search /
// BatchSearch machinery: its dimensionality, a querier factory and the pool
// it refills, plus the telemetry and autotune anchors (every engine embeds
// telem and tune, so collector() and tuner() are always present and usually
// nil).
type engineCore interface {
	dim() int
	newQuerier() (querier, error)
	queriers() *querierPool
	collector() *telemetry.Collector
	tuner() *autotune.Tuner
}

// engineSearch implements Engine.Search over an engineCore. With telemetry
// enabled it times the query end to end and, when the sampler picks this
// query, threads a span trace into the querier's searcher; disabled, the
// only cost is one atomic load.
func engineSearch(ctx context.Context, e engineCore, q []float32, opts []SearchOption) (Result, Stats, error) {
	set, err := resolveSettings(opts)
	if err != nil {
		return Result{}, Stats{}, err
	}
	if err := checkDim(e.dim(), q); err != nil {
		return Result{}, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, Stats{}, err
	}
	qr, err := checkout(e, set)
	if err != nil {
		return Result{}, Stats{}, err
	}
	defer e.queriers().put(qr)
	col := e.collector()
	tn := e.tuner()
	var ctl *autotune.Ctl
	if tn != nil {
		// Even untuned queries check out a controller: they run the full
		// ladder anyway and train the recall/latency model for free. Engines
		// without ladder hooks hand the controller straight back.
		ctl = tn.Start(set.tuning.internal(), baseKnobs(set), time.Now())
		if cs, ok := qr.(ctlSetter); ok {
			cs.setController(ctl)
		} else {
			tn.Finish(ctl)
			ctl = nil
		}
	}
	record := func(st *Stats) {
		if ctl != nil {
			applyOutcome(st, tn.Finish(ctl))
		}
		if len(set.statsInto) > 0 {
			set.statsInto[0] = *st
		}
	}
	if col == nil {
		res, st, err := qr.query(ctx, q, set.k, nil)
		record(&st)
		return res, st, err
	}
	tr := col.StartTrace()
	if ts, ok := qr.(traceSetter); ok {
		ts.setTrace(tr)
	}
	t0 := time.Now()
	res, st, err := qr.query(ctx, q, set.k, nil)
	col.FinishQuery(time.Since(t0), tr)
	record(&st)
	return res, st, err
}

// engineBatchSearch implements Engine.BatchSearch over an engineCore: up to
// WithWorkers workers claim queries through a shared atomic index, each on
// one querier checked out of the engine's pool for the whole batch. The
// calling goroutine is the first worker and only the others are new
// goroutines, so a one-query batch (the common case under light serving
// load) starts none and needs no cancelable context.
func engineBatchSearch(ctx context.Context, e engineCore, queries [][]float32, opts []SearchOption) ([]Result, Stats, error) {
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := checkDims(e.dim(), queries); err != nil {
		return nil, Stats{}, err
	}
	results := make([]Result, len(queries))
	if len(queries) == 0 {
		return results, Stats{}, ctx.Err()
	}
	workers := set.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	// A failing worker cancels its siblings; a lone worker just stops.
	bctx, cancel := ctx, context.CancelFunc(func() {})
	if workers > 1 {
		bctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// One neighbor slab backs every result in the batch: queries write into
	// disjoint k-sized segments, so the workers' steady state runs at zero
	// allocations per query (the searchers reuse their own scratch).
	slab := make([]ann.Neighbor, len(queries)*set.k)

	// With telemetry enabled, each worker times its queries individually —
	// per-query engine latency, not batch wall time — and stamps the
	// coalescer queue wait (carried on the batch context by the serving
	// layer) onto sampled traces. The autotune controller reads the same
	// waits so a coalesced query's latency budget starts at admission, not
	// at batch dispatch.
	col := e.collector()
	tn := e.tuner()
	var waits []time.Duration
	if col != nil || tn != nil {
		waits = telemetry.QueueWaits(ctx)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		agg      Stats
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	work := func() {
		if bctx.Err() != nil {
			return
		}
		qr, err := checkout(e, set)
		if err != nil {
			fail(err)
			return
		}
		defer e.queriers().put(qr)
		ts, _ := qr.(traceSetter)
		var cs ctlSetter
		if tn != nil {
			cs, _ = qr.(ctlSetter)
		}
		var local Stats
		for {
			i := int(next.Add(1)) - 1
			if i >= len(queries) || bctx.Err() != nil {
				break
			}
			seg := slab[i*set.k : i*set.k : (i+1)*set.k]
			if col == nil && cs == nil {
				res, st, err := qr.query(bctx, queries[i], set.k, seg)
				if err != nil {
					fail(err)
					break
				}
				if i < len(set.statsInto) {
					set.statsInto[i] = st
				}
				results[i] = res
				local.Merge(st)
				continue
			}
			var tr *telemetry.Trace
			if col != nil {
				tr = col.StartTrace()
				if ts != nil {
					ts.setTrace(tr)
				}
				if tr != nil && i < len(waits) {
					tr.Add(telemetry.StageCoalesceWait, -1, 0, waits[i], 0, 0)
				}
			}
			t0 := time.Now()
			var ctl *autotune.Ctl
			if cs != nil {
				start := t0
				if i < len(waits) {
					start = start.Add(-waits[i])
				}
				ctl = tn.Start(set.tuning.internal(), baseKnobs(set), start)
				cs.setController(ctl)
			}
			res, st, err := qr.query(bctx, queries[i], set.k, seg)
			if col != nil {
				col.FinishQuery(time.Since(t0), tr)
			}
			if ctl != nil {
				applyOutcome(&st, tn.Finish(ctl))
			}
			if err != nil {
				fail(err)
				break
			}
			if i < len(set.statsInto) {
				set.statsInto[i] = st
			}
			results[i] = res
			local.Merge(st)
		}
		mu.Lock()
		agg.Merge(local)
		mu.Unlock()
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, agg, firstErr
}

// InMemoryIndex is classic in-memory E2LSH: the algorithmic reference the
// three other engines are measured against.
type InMemoryIndex struct {
	telem
	tune
	querierPool
	ix *memindex.Index
}

// NewInMemoryIndex builds an in-memory E2LSH index over data.
func NewInMemoryIndex(data [][]float32, cfg Config) (*InMemoryIndex, error) {
	p, seed, _, err := cfg.derive(data)
	if err != nil {
		return nil, err
	}
	ix, err := memindex.Build(data, p, memindex.Options{ShareProjections: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &InMemoryIndex{ix: ix}, nil
}

// Search answers a top-k c²-ANNS query. It honors WithK, WithBudget and
// WithMultiProbe.
func (m *InMemoryIndex) Search(ctx context.Context, q []float32, opts ...SearchOption) (Result, Stats, error) {
	return engineSearch(ctx, m, q, opts)
}

// BatchSearch answers queries on a worker pool; see Engine.
func (m *InMemoryIndex) BatchSearch(ctx context.Context, queries [][]float32, opts ...SearchOption) ([]Result, Stats, error) {
	return engineBatchSearch(ctx, m, queries, opts)
}

// IndexBytes reports the DRAM footprint of the hash index.
func (m *InMemoryIndex) IndexBytes() int64 { return m.ix.IndexBytes() }

func (m *InMemoryIndex) dim() int { return m.ix.Params().Dim }

func (m *InMemoryIndex) newQuerier() (querier, error) {
	return memQuerier{s: m.ix.NewSearcher()}, nil
}

type memQuerier struct {
	s *memindex.Searcher
}

func (m memQuerier) configure(set searchSettings) {
	m.s.SetBudget(set.budget)
	m.s.SetMultiProbe(set.multiProbe)
}

func (m memQuerier) setTrace(tr *telemetry.Trace) { m.s.SetTrace(tr) }

func (m memQuerier) setController(c *autotune.Ctl) { m.s.SetController(c) }

//lsh:foldall memindex.QueryStats
func (m memQuerier) query(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (Result, Stats, error) {
	// SearchInto with a nil dst allocates exact-capacity backing, so the
	// single-query path needs no separate branch.
	res, st, err := m.s.SearchInto(ctx, q, k, dst)
	return res, Stats{
		Queries:        1,
		Radii:          st.Radii,
		Probes:         st.Probes,
		NonEmptyProbes: st.NonEmptyProbes,
		EntriesScanned: st.EntriesScanned,
		Checked:        st.Checked,
		Duplicates:     st.Duplicates,
		IOsAtInf:       st.IOsAtInf,
	}, err
}
