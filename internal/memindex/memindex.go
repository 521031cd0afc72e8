// Package memindex implements in-memory E2LSH: the original Datar et al.
// algorithm adapted to top-k c-ANNS by probing a geometric ladder of search
// radii (paper §2.3). It is both the paper's in-memory baseline and the
// algorithmic reference for the external-memory E2LSHoS index, which shares
// its hash family and parameters and must return identical candidates.
package memindex

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// Options configure index construction beyond the algorithmic parameters.
type Options struct {
	// ShareProjections reuses one set of projection vectors across all radii
	// (rescaled per radius), computing each dot product once per object. See
	// DESIGN.md; disable to reproduce the fully independent original scheme.
	ShareProjections bool
	// Seed drives hash function generation. Two indexes built with the same
	// data, parameters and seed are identical.
	Seed int64
	// Workers bounds build parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultOptions returns the options used by the experiment harness.
func DefaultOptions() Options {
	return Options{ShareProjections: true, Seed: 1}
}

// table is one frozen hash table: bucket hashes sorted ascending, with
// starts[i]:starts[i+1] delimiting the object IDs of bucket keys[i].
type table struct {
	keys   []uint32
	starts []int32
	ids    []uint32
}

// bucket returns the object IDs hashed to h, or nil for an empty bucket.
func (t *table) bucket(h uint32) []uint32 {
	i, ok := slices.BinarySearch(t.keys, h)
	if !ok {
		return nil
	}
	return t.ids[t.starts[i]:t.starts[i+1]]
}

// Index is a frozen in-memory E2LSH index.
type Index struct {
	params   lsh.Params
	opts     Options
	data     [][]float32
	families []*lsh.Family // one if shared, else one per radius
	tables   [][]table     // [radius][l]
}

// Params returns the parameters the index was built with.
func (ix *Index) Params() lsh.Params { return ix.params }

// WithBudget returns a view of the index whose per-radius candidate budget S
// is replaced. The view shares all tables with the receiver; only the budget
// differs. It is the paper's §3.3 accuracy knob: S tunes accuracy without
// rebuilding the index.
func (ix *Index) WithBudget(s int) *Index {
	if s <= 0 {
		panic("memindex: WithBudget requires a positive budget")
	}
	clone := *ix
	clone.params.S = s
	return &clone
}

// Data returns the indexed vectors.
func (ix *Index) Data() [][]float32 { return ix.data }

// FamilyFor returns the hash family used at radius index rIdx.
func (ix *Index) FamilyFor(rIdx int) *lsh.Family {
	if ix.opts.ShareProjections {
		return ix.families[0]
	}
	return ix.families[rIdx]
}

// IndexBytes estimates the DRAM footprint of the hash index (keys, starts and
// id slabs across all tables), the quantity that limits in-memory E2LSH
// (§3.5).
func (ix *Index) IndexBytes() int64 {
	var b int64
	for _, radius := range ix.tables {
		for i := range radius {
			t := &radius[i]
			b += int64(len(t.keys))*4 + int64(len(t.starts))*4 + int64(len(t.ids))*4
		}
	}
	return b
}

// Build constructs the index over data with the given derived parameters.
func Build(data [][]float32, p lsh.Params, opts Options) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("memindex: empty dataset")
	}
	if len(data) != p.N {
		return nil, fmt.Errorf("memindex: params derived for n=%d but dataset has %d", p.N, len(data))
	}
	if len(data[0]) != p.Dim {
		return nil, fmt.Errorf("memindex: params derived for dim=%d but dataset has %d", p.Dim, len(data[0]))
	}
	if p.R() == 0 {
		return nil, fmt.Errorf("memindex: empty radius schedule")
	}
	ix := &Index{params: p, opts: opts, data: data}
	fams, err := lsh.NewFamilies(p, opts.ShareProjections, opts.Seed)
	if err != nil {
		return nil, err
	}
	ix.families = fams
	if err := ix.buildTables(); err != nil {
		return nil, err
	}
	return ix, nil
}

// HashKeys computes the 32-bit compound hash of every object for every
// (radius, table) pair, object-parallel across workers. The result is
// indexed [radius][table][object]. It is shared by the in-memory and
// on-storage index builders so both observe identical hashes.
func HashKeys(data [][]float32, families []*lsh.Family, p lsh.Params, share bool, workers int) [][][]uint32 {
	n := len(data)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	keys := make([][][]uint32, p.R())
	for r := range keys {
		keys[r] = make([][]uint32, p.L)
		for l := range keys[r] {
			keys[r][l] = make([]uint32, n)
		}
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			proj := make([]float64, p.L*p.M)
			hashes := make([]uint32, p.L)
			for obj := lo; obj < hi; obj++ {
				v := data[obj]
				if share {
					families[0].Project(v, proj)
					for r := 0; r < p.R(); r++ {
						families[0].HashesAt(proj, p.Radii[r], hashes)
						for l := 0; l < p.L; l++ {
							keys[r][l][obj] = hashes[l]
						}
					}
				} else {
					for r := 0; r < p.R(); r++ {
						families[r].Project(v, proj)
						families[r].HashesAt(proj, p.Radii[r], hashes)
						for l := 0; l < p.L; l++ {
							keys[r][l][obj] = hashes[l]
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return keys
}

// buildTables hashes every object at every radius and freezes the buckets.
// Work is parallelized over objects (hash computation) and then over tables
// (sorting), both deterministic.
func (ix *Index) buildTables() error {
	p := ix.params
	workers := ix.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	keys := HashKeys(ix.data, ix.families, p, ix.opts.ShareProjections, workers)

	// Freeze each table, table-parallel.
	ix.tables = make([][]table, p.R())
	for r := range ix.tables {
		ix.tables[r] = make([]table, p.L)
	}
	type job struct{ r, l int }
	jobs := make(chan job)
	var tw sync.WaitGroup
	for w := 0; w < workers; w++ {
		tw.Add(1)
		go func() {
			defer tw.Done()
			for j := range jobs {
				ix.tables[j.r][j.l] = freezeTable(keys[j.r][j.l])
			}
		}()
	}
	for r := 0; r < p.R(); r++ {
		for l := 0; l < p.L; l++ {
			jobs <- job{r, l}
		}
	}
	close(jobs)
	tw.Wait()
	return nil
}

// freezeTable turns the per-object hash array into a sorted bucket table.
func freezeTable(hashes []uint32) table {
	n := len(hashes)
	pairs := make([]uint64, n)
	for id, h := range hashes {
		pairs[id] = uint64(h)<<32 | uint64(id)
	}
	slices.Sort(pairs)
	t := table{ids: make([]uint32, n)}
	var lastKey uint32
	for i, pk := range pairs {
		h := uint32(pk >> 32)
		id := uint32(pk)
		if i == 0 || h != lastKey {
			t.keys = append(t.keys, h)
			t.starts = append(t.starts, int32(i))
			lastKey = h
		}
		t.ids[i] = id
	}
	t.starts = append(t.starts, int32(n))
	return t
}

// QueryStats records what one query did, in the units the paper's analysis
// needs (Table 4, Figs 3–8).
//
//lsh:counters
type QueryStats struct {
	// Radii is the number of (R,c)-NN rounds executed (contributes r̄).
	Radii int
	// Probes counts bucket lookups (L per radius).
	Probes int
	// NonEmptyProbes counts lookups that hit a non-empty bucket; with the
	// paper's DRAM occupancy bitmaps, only these cost I/O.
	NonEmptyProbes int
	// EntriesScanned counts bucket entries read, including duplicates.
	EntriesScanned int
	// Checked counts distance computations (unique candidates examined).
	Checked int
	// Duplicates counts entries skipped because the object was already seen.
	Duplicates int
	// IOsAtInf is the paper's N_IO,∞: one hash-table read plus one bucket
	// read per non-empty probed bucket (block size unlimited).
	IOsAtInf int
}

// BucketVisitFn observes every non-empty bucket visit of a query: size is
// the bucket's total entry count, read is how many entries the search
// actually consumed before moving on. The I/O models for finite block sizes
// are built on this hook.
type BucketVisitFn func(size, read int)

// Searcher holds the per-goroutine scratch state for querying an Index:
// projection buffer, hash buffer, the epoch-stamped visited array, and the
// reused top-k accumulator. After its first query a Searcher's steady state
// allocates nothing per query on the SearchInto path. A Searcher is not
// safe for concurrent use; create one per worker.
type Searcher struct {
	ix      *Index
	proj    []float64
	hashes  []uint32
	seen    []uint32
	epoch   uint32
	topk    *ann.TopK
	onVisit BucketVisitFn
	// multiProbe > 0 enables Multi-Probe LSH (§8 extension): each table is
	// probed at its base bucket plus this many perturbed buckets.
	multiProbe int
	floors     []int64
	fracs      []float64
	pfloors    []int64
	// budget, when positive, replaces the index's per-radius candidate
	// budget S for this searcher's queries (SetBudget).
	budget int
	// trace is the active sampled-query span buffer (nil for unsampled
	// queries; all its methods are nil-safe no-ops then).
	trace *telemetry.Trace
	// ctl is the active autotune controller (nil for uncontrolled queries).
	ctl *autotune.Ctl
}

// SetTrace installs the span buffer the next query records into (nil
// disables tracing).
func (s *Searcher) SetTrace(tr *telemetry.Trace) { s.trace = tr }

// SetController installs the autotune controller the next query consults
// per radius round (nil disables control).
func (s *Searcher) SetController(c *autotune.Ctl) { s.ctl = c }

// Trace returns the span buffer installed for the next query (nil if none).
func (s *Searcher) Trace() *telemetry.Trace { return s.trace }

// Controller returns the autotune controller installed for the next query
// (nil if none).
func (s *Searcher) Controller() *autotune.Ctl { return s.ctl }

// SetBudget replaces the per-radius candidate budget S for this searcher's
// later queries, exactly as querying a WithBudget view would; b ≤ 0 restores
// the index's own budget. A long-lived searcher takes each call's budget
// this way instead of being rebuilt over a view.
func (s *Searcher) SetBudget(b int) { s.budget = b }

// NewSearcher returns a fresh searcher over the index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:     ix,
		proj:   make([]float64, ix.params.L*ix.params.M),
		hashes: make([]uint32, ix.params.L),
		seen:   make([]uint32, len(ix.data)),
	}
}

// OnBucketVisit installs an observer called once per non-empty bucket visit.
func (s *Searcher) OnBucketVisit(fn BucketVisitFn) { s.onVisit = fn }

// SetMultiProbe enables Multi-Probe LSH with t extra probes per table
// (t = 0 restores classic E2LSH probing). Extra probes examine the
// neighboring buckets most likely to hold near objects, buying recall
// without enlarging the index.
func (s *Searcher) SetMultiProbe(t int) {
	if t < 0 {
		panic("memindex: negative multi-probe count")
	}
	s.multiProbe = t
	if t > 0 && s.floors == nil {
		s.floors = make([]int64, s.ix.params.L*s.ix.params.M)
		s.fracs = make([]float64, s.ix.params.L*s.ix.params.M)
		s.pfloors = make([]int64, s.ix.params.M)
	}
}

// Search runs top-k c-ANNS for the query and returns the neighbors found
// together with the per-query statistics. It terminates at the first radius R
// where k neighbors within c·R have been found, or after exhausting the
// radius schedule (§2.3). With SetMultiProbe, each table additionally probes
// its most promising neighboring buckets.
func (s *Searcher) Search(q []float32, k int) (ann.Result, QueryStats) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	res, st, _ := s.SearchContext(context.Background(), q, k)
	return res, st
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, so a long ladder walk aborts cleanly. On cancellation it returns
// the neighbors accumulated so far together with ctx.Err().
func (s *Searcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, QueryStats, error) {
	st, err := s.search(ctx, q, k)
	return s.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0] (growing it only if its
// capacity is below the neighbors found), so a worker looping over queries
// with a reused dst allocates nothing per query after warmup.
func (s *Searcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, QueryStats, error) {
	st, err := s.search(ctx, q, k)
	return ann.Result{Neighbors: s.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the radius ladder, leaving the winners (keyed by squared
// distance) in s.topk.
//
//lsh:hotpath
func (s *Searcher) search(ctx context.Context, q []float32, k int) (QueryStats, error) {
	p := s.ix.params
	var st QueryStats
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: clear stamps
		clear(s.seen)
		s.epoch = 1
	}
	if s.topk == nil {
		s.topk = ann.NewTopK(k)
	} else {
		s.topk.Reset(k)
	}
	topk := s.topk
	baseS := p.S
	if s.budget > 0 {
		baseS = s.budget
	}
	if s.ix.opts.ShareProjections {
		s.ix.families[0].ProjectInto(s.proj, q)
	}
	//lsh:ladder
	for rIdx, radius := range p.Radii {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		mp, budgetS := s.multiProbe, baseS
		if c := s.ctl; c != nil {
			kn, proceed := c.BeforeRound(rIdx, baseS)
			if !proceed {
				break
			}
			budgetS = kn.BudgetS
			// Never raise multi-probe above what the searcher sized its
			// floor arenas for.
			if kn.MultiProbe < mp {
				mp = kn.MultiProbe
			}
		}
		st.Radii++
		tr := s.trace
		roundStart := tr.Clock()
		fam := s.ix.FamilyFor(rIdx)
		if !s.ix.opts.ShareProjections {
			fam.ProjectInto(s.proj, q)
		}
		if mp > 0 {
			// Derive base hashes from explicit floors so perturbed probes
			// stay coherent with the base probe.
			fam.FloorsAt(s.proj, radius, s.floors, s.fracs)
			for l := 0; l < p.L; l++ {
				s.hashes[l] = fam.CombineFloors(l, s.floors[l*p.M:(l+1)*p.M])
			}
		} else {
			fam.HashesAt(s.proj, radius, s.hashes)
		}
		projEnd := tr.Clock()
		var stBefore QueryStats
		if tr.Active() {
			stBefore = st
		}
		checked := 0 // per-radius candidate budget (the paper's S)
	tables:
		for l := 0; l < p.L; l++ {
			if s.scanBucket(rIdx, l, s.hashes[l], q, topk, &st, &checked, budgetS) {
				break tables
			}
			if mp == 0 {
				continue
			}
			fracs := s.fracs[l*p.M : (l+1)*p.M]
			base := s.floors[l*p.M : (l+1)*p.M]
			for _, set := range lsh.PerturbationSets(fracs, mp) {
				copy(s.pfloors, base)
				for _, pert := range set {
					s.pfloors[pert.Coord] += int64(pert.Delta)
				}
				h := fam.CombineFloors(l, s.pfloors)
				if s.scanBucket(rIdx, l, h, q, topk, &st, &checked, budgetS) {
					break tables
				}
			}
		}
		if tr.Active() {
			// In-memory there is no I/O stage: the table walk is all
			// verification work, so the round splits into project + verify.
			end := tr.Clock()
			tr.Add(telemetry.StageProject, rIdx, roundStart, projEnd-roundStart, 0, 0)
			tr.Add(telemetry.StageVerify, rIdx, projEnd, end-projEnd, int64(st.Checked-stBefore.Checked), 0)
			tr.Add(telemetry.StageRound, rIdx, roundStart, end-roundStart,
				int64(st.Probes-stBefore.Probes), int64(st.NonEmptyProbes-stBefore.NonEmptyProbes))
		}
		cr := p.C * radius
		certified := topk.CountWithin(cr * cr)
		if topk.Full() && certified >= k {
			break
		}
		if c := s.ctl; c != nil && c.AfterRound(rIdx, topk, certified) {
			break
		}
	}
	if c := s.ctl; c != nil {
		c.EndLadder(topk, st.Radii, len(p.Radii))
	}
	return st, nil
}

// scanBucket probes one bucket and verifies its candidates, reporting
// whether the per-radius budget was exhausted. Verification is pruned: the
// partial squared distance abandons as soon as it exceeds the current k-th
// squared distance, which is exact — an abandoned candidate can never enter
// the top-k (see vecmath.SqDistBounded).
//
//lsh:hotpath
func (s *Searcher) scanBucket(rIdx, l int, h uint32, q []float32, topk *ann.TopK, st *QueryStats, checked *int, budget int) bool {
	st.Probes++
	ids := s.ix.tables[rIdx][l].bucket(h)
	if len(ids) == 0 {
		return false
	}
	st.NonEmptyProbes++
	st.IOsAtInf += 2
	read := 0
	for _, id := range ids {
		read++
		st.EntriesScanned++
		if s.seen[id] == s.epoch {
			st.Duplicates++
			continue
		}
		s.seen[id] = s.epoch
		if sq, ok := vecmath.SqDistBounded(s.ix.data[id], q, topk.Worst()); ok {
			topk.Push(id, sq)
		}
		st.Checked++
		*checked++
		if *checked >= budget {
			if s.onVisit != nil {
				s.onVisit(len(ids), read)
			}
			return true
		}
	}
	if s.onVisit != nil {
		s.onVisit(len(ids), read)
	}
	return false
}

// StatsAccumulator aggregates QueryStats over a query batch.
type StatsAccumulator struct {
	Queries int
	Sum     QueryStats
}

// Add folds one query's stats into the accumulator.
//
//lsh:foldall QueryStats
func (a *StatsAccumulator) Add(st QueryStats) {
	a.Queries++
	a.Sum.Radii += st.Radii
	a.Sum.Probes += st.Probes
	a.Sum.NonEmptyProbes += st.NonEmptyProbes
	a.Sum.EntriesScanned += st.EntriesScanned
	a.Sum.Checked += st.Checked
	a.Sum.Duplicates += st.Duplicates
	a.Sum.IOsAtInf += st.IOsAtInf
}

// MeanRadii returns the paper's r̄, the average number of radii searched.
func (a *StatsAccumulator) MeanRadii() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Sum.Radii) / float64(a.Queries)
}

// MeanIOsAtInf returns the paper's N_IO,∞ per query.
func (a *StatsAccumulator) MeanIOsAtInf() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Sum.IOsAtInf) / float64(a.Queries)
}

// MeanChecked returns the average number of distance computations per query.
func (a *StatsAccumulator) MeanChecked() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Sum.Checked) / float64(a.Queries)
}
