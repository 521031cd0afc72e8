package diskindex

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"e2lshos/internal/ann"
	"e2lshos/internal/autotune"
	"e2lshos/internal/blockcache"
	"e2lshos/internal/blockstore"
	"e2lshos/internal/ioengine"
	"e2lshos/internal/lsh"
	"e2lshos/internal/telemetry"
	"e2lshos/internal/vecmath"
)

// ParallelSearcher answers queries with real (wall-clock) concurrency: the
// production counterpart of the simulated asynchronous engine. Per search
// radius it walks the hash-table entries and bucket chains of all occupied
// buckets with up to fanout concurrent walkers — the paper's "many parallel
// read requests" realized with blocking reads — then verifies candidates
// deterministically in table order. The calling goroutine is one of the
// walkers; the others are helper goroutines started for one round's fetch
// phase, all claiming probes through one atomic claim word (see fetchAll).
//
// A ParallelSearcher is safe for use by one goroutine at a time; run several
// searchers concurrently to batch queries, matching §6's multithreaded setup.
// It is meant to be long-lived: fan-out and budget are per-call settings
// (SetFanout, SetBudget), so one warmed searcher serves any knob mix.
type ParallelSearcher struct {
	ix     *Index
	fanout int
	budget int // per-radius budget override; ≤ 0 keeps the index's S
	proj   []float64
	hashes []uint32
	seen   []uint32
	epoch  uint32
	topk   *ann.TopK
	// probeBuf and walkerBufs are the per-round arenas: probe structs (and
	// their ids backing) and one block buffer per chain walker are reused
	// across a searcher's queries instead of reallocated per radius round.
	// walkerBufs grows on demand to the widest fan-out used, which a round
	// caps at L (one walker per probe at most).
	probeBuf   []probe
	probePtrs  []*probe
	walkerBufs [][]byte
	// claim packs fetchAll's round number (high 32 bits) with the index of
	// the round's next unclaimed probe (low 32 bits); walked counts the
	// round's finished probes; lastDone carries the wake-up from a helper
	// that finishes the round's last probe to the waiting caller.
	claim    atomic.Uint64
	walked   atomic.Int64
	lastDone chan struct{}
	// Vectored-fetch arenas (I/O engine path): one logical-block buffer per
	// probe plus the flattened addr/buf slices of the current wave.
	vecBufs  [][]byte
	vecAddrs []blockstore.Addr
	vecDsts  [][]byte
	vecLive  []*probe
	vecHeads []blockstore.Addr
	vecOffs  []int
	// Readahead scratch (cache.go), mirroring Searcher's.
	nextHashes []uint32
	raProj     []float64
	pending    *blockcache.Handle
	// trace is the active sampled-query span buffer (nil for unsampled
	// queries). Only the owning goroutine touches it; the fetch helpers
	// never see it.
	trace *telemetry.Trace
	// ctl is the active autotune controller (nil for uncontrolled queries).
	ctl *autotune.Ctl
}

// SetTrace installs the span buffer the next query records into (nil
// disables tracing).
func (ps *ParallelSearcher) SetTrace(tr *telemetry.Trace) { ps.trace = tr }

// SetController installs the autotune controller the next query consults
// per radius round (nil disables control).
func (ps *ParallelSearcher) SetController(c *autotune.Ctl) { ps.ctl = c }

// Trace returns the span buffer installed for the next query (nil if none).
func (ps *ParallelSearcher) Trace() *telemetry.Trace { return ps.trace }

// Controller returns the autotune controller installed for the next query
// (nil if none).
func (ps *ParallelSearcher) Controller() *autotune.Ctl { return ps.ctl }

// SetFanout sets the number of bucket chains later queries walk
// concurrently (n ≥ 1). Block buffers for the extra walkers are allocated
// on first use.
func (ps *ParallelSearcher) SetFanout(n int) {
	if n < 1 {
		panic("diskindex: parallel searcher fan-out must be at least 1")
	}
	ps.fanout = n
}

// SetBudget replaces the per-radius candidate budget S for later queries,
// exactly as querying a WithBudget view would; b ≤ 0 restores the index's
// own budget.
func (ps *ParallelSearcher) SetBudget(b int) { ps.budget = b }

// NewParallelSearcher creates a searcher with the given fan-out (≥1). Safe
// to call while updates run: the dedup arena is sized under the update lock
// (search() regrows it if inserts land later anyway).
func (ix *Index) NewParallelSearcher(fanout int) (*ParallelSearcher, error) {
	if fanout < 1 {
		return nil, fmt.Errorf("diskindex: parallel searcher needs at least 1 worker, got %d", fanout)
	}
	u := ix.upd
	u.mu.RLock()
	n := len(ix.data)
	u.mu.RUnlock()
	ps := &ParallelSearcher{
		ix:        ix,
		fanout:    fanout,
		proj:      make([]float64, ix.params.L*ix.params.M),
		hashes:    make([]uint32, ix.params.L),
		seen:      make([]uint32, n),
		probeBuf:  make([]probe, ix.params.L),
		probePtrs: make([]*probe, 0, ix.params.L),
		lastDone:  make(chan struct{}, 1),
	}
	ps.growWalkerBufs(min(fanout, ix.params.L))
	if ix.ioeng != nil {
		ps.ensureVecArenas()
	}
	if ix.readaheadActive() {
		ps.nextHashes = make([]uint32, ix.params.L)
		if !ix.opts.ShareProjections {
			ps.raProj = make([]float64, ix.params.L*ix.params.M)
		}
	}
	return ps, nil
}

// growWalkerBufs makes sure n chain walkers have a block buffer each.
func (ps *ParallelSearcher) growWalkerBufs(n int) {
	for len(ps.walkerBufs) < n {
		ps.walkerBufs = append(ps.walkerBufs, make([]byte, ps.ix.bucketBufBytes()))
	}
}

// ensureVecArenas allocates the vectored-fetch arenas once, whether the I/O
// engine was attached before or after this searcher was built.
func (ps *ParallelSearcher) ensureVecArenas() {
	if ps.vecBufs != nil {
		return
	}
	ix := ps.ix
	ps.vecBufs = make([][]byte, ix.params.L)
	for i := range ps.vecBufs {
		ps.vecBufs[i] = make([]byte, ix.bucketBufBytes())
	}
	ps.vecAddrs = make([]blockstore.Addr, 0, ix.params.L*ix.physPerBucket)
	ps.vecDsts = make([][]byte, 0, ix.params.L*ix.physPerBucket)
	ps.vecLive = make([]*probe, 0, ix.params.L)
	ps.vecHeads = make([]blockstore.Addr, 0, ix.params.L)
	ps.vecOffs = make([]int, 0, ix.params.L)
}

// probe is one occupied bucket to fetch during a radius round.
type probe struct {
	l   int
	idx uint32
	fp  uint32
	ids []uint32 // fingerprint-matched object ids, filled by the fetch phase
	ios int      // I/Os consumed fetching this probe
	cst Stats    // cache hit/miss outcomes of this probe's reads
	err error
}

// Search answers a top-k query.
func (ps *ParallelSearcher) Search(q []float32, k int) (ann.Result, Stats, error) {
	//lsh:ctxok ctx-free convenience wrapper; cancellation lives in SearchContext
	return ps.SearchContext(context.Background(), q, k)
}

// SearchContext is Search with cancellation: ctx is checked between radius
// rounds, before each fan-out, so a long ladder walk aborts cleanly. On
// cancellation it returns the neighbors accumulated so far with ctx.Err().
func (ps *ParallelSearcher) SearchContext(ctx context.Context, q []float32, k int) (ann.Result, Stats, error) {
	st, err := ps.search(ctx, q, k)
	return ps.topk.ResultSq(), st, err
}

// SearchInto is SearchContext with caller-owned result backing: the
// returned neighbors are appended into dst[:0].
func (ps *ParallelSearcher) SearchInto(ctx context.Context, q []float32, k int, dst []ann.Neighbor) (ann.Result, Stats, error) {
	st, err := ps.search(ctx, q, k)
	return ann.Result{Neighbors: ps.topk.AppendResultSq(dst[:0])}, st, err
}

// search runs the ladder, leaving the winners (keyed by squared distance)
// in ps.topk; on an I/O error the accumulator is emptied. The whole query
// (fan-out goroutines included) holds the index's update lock shared; see
// Searcher.search for the torn-chain argument.
func (ps *ParallelSearcher) search(ctx context.Context, q []float32, k int) (Stats, error) {
	u := ps.ix.upd
	u.mu.RLock()
	defer u.mu.RUnlock()
	if n := len(ps.ix.data); n > len(ps.seen) {
		// Inserts grew the dataset past this searcher's dedup array.
		grown := make([]uint32, n)
		copy(grown, ps.seen)
		ps.seen = grown
	}
	st, err := ps.searchContext(ctx, q, k)
	if ps.pending != nil {
		// See Searcher.SearchContext: settle readahead for unentered rounds.
		st.Prefetched += int(ps.pending.Wait())
		ps.pending = nil
	}
	return st, err
}

func (ps *ParallelSearcher) searchContext(ctx context.Context, q []float32, k int) (Stats, error) {
	ix := ps.ix
	ix.checkDim(q)
	p := ix.params
	var st Stats
	ps.epoch++
	if ps.epoch == 0 {
		clear(ps.seen)
		ps.epoch = 1
	}
	if ps.topk == nil {
		ps.topk = ann.NewTopK(k)
	} else {
		ps.topk.Reset(k)
	}
	topk := ps.topk
	baseS := budgetOr(ps.budget, p.S)
	if ix.opts.ShareProjections {
		ix.families[0].ProjectInto(ps.proj, q)
	}
	//lsh:ladder
	for rIdx, radius := range p.Radii {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if ps.pending != nil {
			st.Prefetched += int(ps.pending.Wait())
			ps.pending = nil
		}
		budgetS, readahead, fanout := baseS, true, ps.fanout
		if c := ps.ctl; c != nil {
			kn, proceed := c.BeforeRound(rIdx, baseS)
			if !proceed {
				break
			}
			budgetS, readahead = kn.BudgetS, kn.Readahead
			if kn.Fanout > 0 && kn.Fanout < fanout {
				fanout = kn.Fanout
			}
		}
		st.Radii++
		tr := ps.trace
		roundStart := tr.Clock()
		fam := ix.FamilyFor(rIdx)
		if !ix.opts.ShareProjections {
			fam.ProjectInto(ps.proj, q)
		}
		fam.HashesAt(ps.proj, radius, ps.hashes)
		projEnd := tr.Clock()
		var stBefore Stats
		if tr.Active() {
			stBefore = st
		}
		if readahead && ix.readaheadActive() && rIdx+1 < p.R() {
			ix.roundHashes(q, rIdx+1, ps.proj, ps.raProj, ps.nextHashes)
			ps.pending = ix.prefetchRound(ctx, rIdx+1, ps.nextHashes)
		}

		// Collect occupied buckets for this radius into the probe arena.
		probes := ps.probePtrs[:0]
		for l := 0; l < p.L; l++ {
			st.Probes++
			idx, fp := lsh.SplitHash(ps.hashes[l], ix.u)
			if !ix.isOccupied(rIdx, l, idx) {
				continue
			}
			st.NonEmptyProbes++
			pr := &ps.probeBuf[len(probes)]
			*pr = probe{l: l, idx: idx, fp: fp, ids: pr.ids[:0]}
			probes = append(probes, pr)
		}
		// Fetch phase: table entries + bucket chains. With an I/O engine the
		// round goes out as vectored waves; otherwise up to fanout walkers
		// follow the probes' chains with blocking reads.
		fetchStart := tr.Clock()
		if ix.ioeng != nil {
			if err := ps.fetchAllVec(rIdx, probes, &st); err != nil {
				topk.Reset(k)
				return st, err
			}
		} else {
			ps.fetchAll(rIdx, probes, fanout)
		}
		for _, pr := range probes {
			if pr.err != nil {
				if !storageFault(pr.err) {
					topk.Reset(k)
					return st, pr.err
				}
				// Degraded mode: the chain was cut short by an unreadable
				// block; the ids it collected before the cut still verify
				// below.
				st.skipChain()
			}
			if pr.ios > 0 {
				st.TableIOs++
				st.BucketIOs += pr.ios - 1
			}
			st.CacheHits += pr.cst.CacheHits
			st.CacheMisses += pr.cst.CacheMisses
		}
		fetchEnd := tr.Clock()
		// Verify phase: deterministic, in table order, under the budget.
		checked := 0
	probes:
		for _, pr := range probes {
			for _, id := range pr.ids {
				st.EntriesScanned++
				if ps.seen[id] == ps.epoch {
					st.Duplicates++
					continue
				}
				ps.seen[id] = ps.epoch
				if sq, ok := vecmath.SqDistBounded(ix.data[id], q, topk.Worst()); ok {
					topk.Push(id, sq)
				}
				st.Checked++
				checked++
				if checked >= budgetS {
					break probes
				}
			}
		}
		if tr.Active() {
			end := tr.Clock()
			tr.Add(telemetry.StageProject, rIdx, roundStart, projEnd-roundStart, 0, 0)
			tr.Add(telemetry.StageIO, rIdx, fetchStart, fetchEnd-fetchStart,
				int64(st.TableIOs+st.BucketIOs-stBefore.TableIOs-stBefore.BucketIOs),
				int64(st.CacheHits-stBefore.CacheHits))
			tr.Add(telemetry.StageVerify, rIdx, fetchEnd, end-fetchEnd, int64(st.Checked-stBefore.Checked), 0)
			tr.Add(telemetry.StageRound, rIdx, roundStart, end-roundStart,
				int64(st.Probes-stBefore.Probes), int64(st.NonEmptyProbes-stBefore.NonEmptyProbes))
		}
		cr := p.C * radius
		certified := topk.CountWithin(cr * cr)
		if topk.Full() && certified >= k {
			break
		}
		if c := ps.ctl; c != nil && c.AfterRound(rIdx, topk, certified) {
			break
		}
	}
	if c := ps.ctl; c != nil {
		c.EndLadder(topk, st.Radii, p.R())
	}
	return st, nil
}

// fetchAll walks every probe's table entry and bucket chain with at most
// fanout concurrent walkers (the controller may degrade fanout below the
// configured value mid-query). The calling goroutine is the first walker;
// fanout−1 helper goroutines started for this round are the rest. Every
// walker claims the next unwalked probe through the shared atomic claim
// word, so no walker idles while probes remain and no channel hand-off sits
// between a claim and its reads. Each probe's result lands in the probe
// itself, so the claim order does not affect the answer.
//
// The round ends when its last probe is walked, not when every helper has
// exited: the caller waits only for probes a helper is still walking, and a
// helper that starts after the caller has claimed everything finds nothing
// to claim and exits without touching the searcher's buffers. The round
// number in the claim word keeps such a late helper from claiming a later
// round's probes, so no goroutine outlives a round with work in hand.
func (ps *ParallelSearcher) fetchAll(rIdx int, probes []*probe, fanout int) {
	walkers := min(max(fanout, 1), len(probes))
	if walkers == 0 {
		return
	}
	ps.growWalkerBufs(walkers)
	round := ps.claim.Load()>>32 + 1
	ps.walked.Store(0)
	ps.claim.Store(round << 32)
	for w := 1; w < walkers; w++ {
		go func(buf []byte) {
			if ps.walk(round, rIdx, probes, buf) {
				ps.lastDone <- struct{}{}
			}
		}(ps.walkerBufs[w])
	}
	if !ps.walk(round, rIdx, probes, ps.walkerBufs[0]) {
		<-ps.lastDone
	}
}

// walk is one fetchAll walker of the given round: it claims and walks probes
// until none of the round's remain, reporting whether it finished the
// round's last probe.
func (ps *ParallelSearcher) walk(round uint64, rIdx int, probes []*probe, buf []byte) (last bool) {
	n := uint64(len(probes))
	for {
		c := ps.claim.Load()
		i := c & (1<<32 - 1)
		if c>>32 != round || i >= n {
			return last
		}
		if !ps.claim.CompareAndSwap(c, c+1) {
			continue
		}
		ps.fetchOne(rIdx, probes[i], buf)
		last = ps.walked.Add(1) == int64(n)
	}
}

// fetchAllVec is the I/O engine fetch phase: instead of per-probe pointer
// chasing it submits the radius round in vectored waves — every probe's
// table-entry block as one batch, then every live chain's current logical
// block as one batch per chain depth — so the engine can coalesce adjacent
// blocks, dedup across concurrent queries, and keep the backend at its
// configured queue depth. The blocks read, the per-probe id lists and the
// logical I/O counts are identical to fetchAll's; only the submission shape
// changes. Engine outcome counters are folded into st.
//
// Demand waves read under a background context on purpose: cancellation
// stays at the searcher's documented radius-round granularity, exactly as on
// the chain-walker path (which never aborts a round midway either).
//
//lsh:hotpath
func (ps *ParallelSearcher) fetchAllVec(rIdx int, probes []*probe, st *Stats) error {
	if len(probes) == 0 {
		return nil
	}
	ix := ps.ix
	// The engine may have been attached after this searcher was built;
	// allocate the wave arenas on first use in that case.
	ps.ensureVecArenas()
	var bst ioengine.BatchStats
	//lsh:ctxok round-granularity cancellation by design; see the doc comment
	ctx := context.Background()

	// Wave 0: all table-entry blocks, stashing each probe's head-pointer
	// byte offset for the decode loop.
	addrs := ps.vecAddrs[:0]
	dsts := ps.vecDsts[:0]
	offs := ps.vecOffs[:0]
	for i, pr := range probes {
		blk, off := ix.tableEntryBlock(rIdx, pr.l, pr.idx)
		addrs = append(addrs, blk)
		offs = append(offs, off)
		dsts = append(dsts, ps.vecBufs[i][:blockstore.BlockSize])
	}
	tr := ps.trace
	waveStart := tr.Clock()
	var tableOK []bool
	if err := ix.ioeng.ReadBatch(ctx, addrs, dsts, &bst); err != nil {
		if !storageFault(err) {
			return err
		}
		tableOK, err = ps.salvageWave(ctx, addrs, dsts, 1, &bst, st)
		if err != nil {
			return err
		}
	}
	if tr.Active() {
		tr.Add(telemetry.StageIOWait, rIdx, waveStart, tr.Clock()-waveStart,
			int64(len(addrs)), int64(bst.PhysicalReads))
	}
	physSeen := bst.PhysicalReads
	live := ps.vecLive[:0]
	heads := ps.vecHeads[:0]
	for i, pr := range probes {
		pr.ios++
		if tableOK != nil && !tableOK[i] {
			continue
		}
		head := blockstore.Addr(binary.LittleEndian.Uint64(ps.vecBufs[i][offs[i] : offs[i]+8]))
		if head != blockstore.Nil {
			live = append(live, pr)
			heads = append(heads, head)
		}
	}

	// Chain waves: one logical bucket block per live probe, repeated until
	// every chain drains. A logical block spanning several physical blocks
	// contributes adjacent addresses, which the engine coalesces back into
	// one read.
	phys := ix.physPerBucket
	for len(live) > 0 {
		addrs = addrs[:0]
		dsts = dsts[:0]
		for i := range live {
			buf := ps.vecBufs[i]
			for p := 0; p < phys; p++ {
				addrs = append(addrs, heads[i]+blockstore.Addr(p))
				dsts = append(dsts, buf[p*blockstore.BlockSize:(p+1)*blockstore.BlockSize])
			}
		}
		waveStart = tr.Clock()
		var chainOK []bool
		if err := ix.ioeng.ReadBatch(ctx, addrs, dsts, &bst); err != nil {
			if !storageFault(err) {
				return err
			}
			chainOK, err = ps.salvageWave(ctx, addrs, dsts, phys, &bst, st)
			if err != nil {
				return err
			}
		}
		if tr.Active() {
			tr.Add(telemetry.StageIOWait, rIdx, waveStart, tr.Clock()-waveStart,
				int64(len(addrs)), int64(bst.PhysicalReads-physSeen))
			physSeen = bst.PhysicalReads
		}
		nextLive := live[:0]
		nextHeads := heads[:0]
		for i, pr := range live {
			buf := ps.vecBufs[i]
			pr.ios++
			if chainOK != nil && !chainOK[i] {
				continue
			}
			next, count := bucketHeader(buf)
			p := HeaderBytes
			for e := 0; e < count; e++ {
				id, efp := ix.unpackEntry(getUint40(buf[p:]))
				p += EntryBytes
				if efp == pr.fp {
					pr.ids = append(pr.ids, id)
				}
			}
			if next != blockstore.Nil {
				nextLive = append(nextLive, pr)
				nextHeads = append(nextHeads, next)
			}
		}
		live = nextLive
		heads = nextHeads
	}
	foldBatchStats(st, bst)
	// The arenas may have grown; keep the larger backing for the next round.
	ps.vecAddrs = addrs[:0]
	ps.vecOffs = offs[:0]
	ps.vecDsts = dsts[:0]
	ps.vecLive = live[:0]
	ps.vecHeads = heads[:0]
	return nil
}

// salvageWave re-reads each logical group of a failed vectored wave
// individually (group consecutive positions per chain), reporting per-group
// success so the round can drop only the chains that are actually
// unreadable. This is the cold path behind a wave-level storage fault: the
// engine's own salvage already published every healthy block of the failed
// wave individually (and cached it), and condemned addresses sit in its
// quarantine, so these re-reads are cache hits or fast fails, not a second
// trip through the backoff ladder.
func (ps *ParallelSearcher) salvageWave(ctx context.Context, addrs []blockstore.Addr, dsts [][]byte, group int, bst *ioengine.BatchStats, st *Stats) ([]bool, error) {
	ok := make([]bool, len(addrs)/group)
	for g := range ok {
		ok[g] = true
		for p := 0; p < group; p++ {
			i := g*group + p
			if err := ps.ix.ioeng.Read(ctx, addrs[i], dsts[i], bst); err != nil {
				if !storageFault(err) {
					return nil, err
				}
				st.skipChain()
				ok[g] = false
				break
			}
		}
	}
	return ok, nil
}

// fetchOne reads one probe's table entry and full bucket chain, collecting
// fingerprint-matched ids.
//
//lsh:hotpath
func (ps *ParallelSearcher) fetchOne(rIdx int, pr *probe, buf []byte) {
	ix := ps.ix
	blk, off := ix.tableEntryBlock(rIdx, pr.l, pr.idx)
	if err := ix.readBlock(blk, buf[:blockstore.BlockSize], &pr.cst); err != nil {
		pr.err = err
		return
	}
	pr.ios++
	addr := blockstore.Addr(binary.LittleEndian.Uint64(buf[off : off+8]))
	for addr != blockstore.Nil {
		if err := ix.readLogicalBlock(addr, buf, &pr.cst); err != nil {
			pr.err = err
			return
		}
		pr.ios++
		next, count := bucketHeader(buf)
		p := HeaderBytes
		for i := 0; i < count; i++ {
			id, efp := ix.unpackEntry(getUint40(buf[p:]))
			p += EntryBytes
			if efp == pr.fp {
				pr.ids = append(pr.ids, id)
			}
		}
		addr = next
	}
}
