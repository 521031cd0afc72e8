package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times an untraced run builds its stack; setup_s is
// the median.
const setupReps = 3

// plan sizes a run of the given measured length.
type plan struct {
	low, high time.Duration
	queries   int // held-out queries to draw
	inserts   int // insert vectors to draw
}

func (b *bench) plan(total time.Duration) plan {
	w := b.w
	var p plan
	if b.traced {
		// Untraced baseline at the low rate, then the traced low and high
		// phases the per-layer metrics come from.
		p.low, p.high = total*3/10, total*4/10
	} else {
		// The low windows get more time: they have fewer operations per
		// second to average over.
		p.low = total * 5 / 8
		p.high = total - p.low
	}
	// The measured phases' expected operations; the traced run has two low
	// phases. The query set is sized 5% above them, so a run sends nearly
	// all of it (it wraps around if Poisson arrivals overrun it), plus the
	// warm-up's reserve (target.go).
	low := p.low.Seconds()
	if b.traced {
		low *= 2
	}
	ops := w.lowRate*low + w.highRate*p.high.Seconds()
	p.queries = max(int(ops*w.searchFrac*1.05), scored) + warmupReserve(w)
	if w.pool > 0 {
		p.queries = max(w.pool, scored)
	}
	if w.insertFrac > 0 {
		p.inserts = int(ops*w.insertFrac*1.2) + 100
	}
	return p
}

// run executes one benchmark run: generate the inputs, start the serving
// process (which sets up and reports set-up time, heap and index size),
// drive the phases, check every answer and report.
func (b *bench) run(total time.Duration) (*report, error) {
	p := b.plan(total)
	if err := b.generate(p.queries, p.inserts); err != nil {
		return nil, err
	}
	ch, err := startChild(b)
	if err != nil {
		return nil, err
	}
	rep, err := b.drive(ch, p)
	if stopErr := ch.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("serving process: %w", stopErr)
	}
	return rep, err
}

// drive runs the phases against the serving child and checks the answers.
func (b *bench) drive(ch *child, p plan) (*report, error) {
	if processCPU(ch.proc.Pid) == 0 {
		return nil, fmt.Errorf("cannot read the serving process's CPU clock")
	}
	tg := b.newTarget(ch.ready.URL)
	tg.serverCPU = func() time.Duration { return processCPU(ch.proc.Pid) }
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	rep := &report{}
	rep.add("id_headroom", "(inserts)", float64(idHeadroom(b.data.N())))

	// Warm-up: connections, lazy set-up and, on storage_hot, the cache.
	warm := tg.runPhase(clients, phaseSpec{name: "warmup", rate: b.w.highRate, dur: warmup}, b.phaseSeed(0))
	b.describePhase(rep, warm)
	tg.warm = false

	var measured []*phaseResult
	if b.traced {
		var err error
		if measured, err = b.runTraced(rep, ch, tg, clients, p); err != nil {
			return nil, err
		}
	} else {
		ticks := readCPUTicks()
		lows, highs := b.rounds(tg, clients, p)
		steal := stealFrac(ticks, readCPUTicks())
		for _, ph := range append(append([]*phaseResult(nil), lows...), highs...) {
			b.describePhase(rep, ph)
			measured = append(measured, ph)
		}
		cpuPerOp(rep, "cpu_ms_per_op_low", lows)
		cpuPerOp(rep, "cpu_ms_per_op_high", highs)
		b.searchLatency(rep, "search_low", lows)
		b.searchLatency(rep, "search_high", highs)
		rep.add("host.steal_frac", "(fraction)", steal)
	}
	for _, ph := range measured {
		rep.attempted += len(ph.outcomes) + ph.abandoned
		rep.failed += ph.failed()
	}
	acc, err := b.check(rep, tg, clients, append([]*phaseResult{warm}, measured...))
	if err != nil {
		return nil, err
	}
	if b.traced {
		return rep, nil
	}
	rep.add("overall_ratio", "ratio", acc.meanRatio())
	rep.add("recall_at_10", "fraction", acc.meanRecall())
	sort.Float64s(ch.ready.SetupS)
	rep.add("setup_s", "s", ch.ready.SetupS[len(ch.ready.SetupS)/2])
	rep.add("index_bytes_per_data_byte", "ratio", float64(ch.ready.IndexBytes)/(float64(b.data.N())*float64(b.data.Dim)*4))
	rep.add("heap_mb", "MB", ch.ready.HeapMB)
	rep.add("error_frac", "(fraction)", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.add("scored_queries", "(queries)", float64(acc.n))
	if b.w.insertFrac > 0 {
		var ins, del kindStats
		for _, ph := range measured {
			ins = mergeKind(ins, ph.stats(opInsert))
			del = mergeKind(del, ph.stats(opDelete))
		}
		rep.add("insert_p50_ms", "(ms)", quantile(ins.latMs, 0.5))
		rep.add("insert_p99_ms", "(ms)", quantile(ins.latMs, 0.99))
		rep.add("delete_p50_ms", "(ms)", quantile(del.latMs, 0.5))
	}
	return rep, nil
}

// runTraced runs the traced run's phases: an untraced baseline at the low
// rate (decorators installed but not recording), then traced low and high
// phases on a fresh server with span sampling at 1.0. The per-layer metrics
// come from the serving process; the client adds the ones only it sees.
func (b *bench) runTraced(rep *report, ch *child, tg *target, clients []*client, p plan) ([]*phaseResult, error) {
	base := tg.runPhase(clients, phaseSpec{name: "untraced_low", rate: b.w.lowRate, dur: p.low}, b.phaseSeed(1))
	b.describePhase(rep, base)
	var start struct {
		URL string `json:"url"`
	}
	if err := ch.control("/trace/start", &start); err != nil {
		return nil, err
	}
	tg.url = start.URL
	b.rec.on.Store(true)
	low := tg.runPhase(clients, phaseSpec{name: "traced_low", rate: b.w.lowRate, dur: p.low}, b.phaseSeed(2))
	high := tg.runPhase(clients, phaseSpec{name: "traced_high", rate: b.w.highRate, dur: p.high}, b.phaseSeed(3))
	b.rec.on.Store(false)
	b.describePhase(rep, low)
	b.describePhase(rep, high)
	var lr layerReport
	if err := ch.control("/trace/stop", &lr); err != nil {
		return nil, err
	}
	for _, m := range lr.Metrics {
		rep.add(m.Name, m.Unit, m.Value)
	}

	var ins, del kindStats
	var clientUs, reqBytes, respBytes []float64
	for _, ph := range []*phaseResult{low, high} {
		ins = mergeKind(ins, ph.stats(opInsert))
		del = mergeKind(del, ph.stats(opDelete))
		for i := range ph.outcomes {
			if o := &ph.outcomes[i]; o.kind == opSearch && o.ok() {
				clientUs = append(clientUs, us(o.done.Sub(o.sent)))
				reqBytes = append(reqBytes, float64(o.reqBytes))
				respBytes = append(respBytes, float64(o.respBytes))
			}
		}
	}
	rep.add("http.overhead_us", "us", mean(clientUs)-lr.ServerMeanUs)
	rep.add("http.req_bytes", "bytes", mean(reqBytes))
	rep.add("http.resp_bytes", "bytes", mean(respBytes))
	rep.add("insert_p50_ms", "ms", quantile(ins.latMs, 0.5))
	rep.add("insert_p99_ms", "ms", quantile(ins.latMs, 0.99))
	rep.add("delete_p50_ms", "ms", quantile(del.latMs, 0.5))
	baseP50 := quantile(base.stats(opSearch).latMs, 0.5)
	lowP50 := quantile(low.stats(opSearch).latMs, 0.5)
	rep.add("telemetry.trace_overhead_frac", "fraction", ratio(lowP50, baseP50)-1)
	var late []float64
	for _, ph := range []*phaseResult{low, high} {
		late = append(late, ph.lateMs...)
	}
	rep.add("gen.late_ms.p99", "ms", quantile(late, 0.99))

	path := b.spanPath("client")
	if err := b.rec.dump(path); err != nil {
		return nil, fmt.Errorf("writing span dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s and %s\n", path, b.spanPath("server"))
	return []*phaseResult{base, low, high}, nil
}

func mergeKind(a, b kindStats) kindStats {
	a.attempted += b.attempted
	a.ok += b.ok
	a.failed += b.failed
	a.latMs = append(a.latMs, b.latMs...)
	return a
}

// phaseSeed derives the arrival/choice seed of phase i.
func (b *bench) phaseSeed(i int) uint64 { return b.seed*7919 + uint64(i)*104729 + 1 }

// rounds runs the untraced measurement as measureRounds rounds of a low
// window and a high window, so a stretch of host contention lands on
// windows of both kinds.
func (b *bench) rounds(tg *target, clients []*client, p plan) (lows, highs []*phaseResult) {
	for r := 0; r < measureRounds; r++ {
		lows = append(lows, tg.runPhase(clients, phaseSpec{
			name: fmt.Sprintf("low%d", r), rate: b.w.lowRate, dur: p.low / measureRounds,
		}, b.phaseSeed(100+r)))
		highs = append(highs, tg.runPhase(clients, phaseSpec{
			name: fmt.Sprintf("high%d", r), rate: b.w.highRate, dur: p.high / measureRounds,
		}, b.phaseSeed(200+r)))
	}
	return lows, highs
}

// measureRounds is how many rounds an untraced run has.
const measureRounds = 8

// cpuPerOp adds name: the serving process's CPU time over the windows,
// divided by the operations answered in them, in milliseconds.
func cpuPerOp(rep *report, name string, windows []*phaseResult) {
	var cpu time.Duration
	ops := 0
	for _, ph := range windows {
		cpu += ph.serverCPU
		ops += len(ph.outcomes)
	}
	rep.add(name, "ms", ratio(float64(cpu)/1e6, float64(ops)))
	rep.add(name+".ops", "(ops)", float64(ops))
}

// searchLatency prints the nearest-rank search p50, p90 and p99 over every
// search of the windows as <prefix>_p50_ms, <prefix>_p90_ms and
// <prefix>_p99_ms, with the sample count. They are wall-clock figures and
// move with the host's contention (host.go), so they are diagnostics, not
// part of the result line.
func (b *bench) searchLatency(rep *report, prefix string, windows []*phaseResult) {
	var lat []float64
	for _, ph := range windows {
		lat = append(lat, ph.stats(opSearch).latMs...)
	}
	rep.add(prefix+"_p50_ms", "(ms)", quantile(lat, 0.5))
	rep.add(prefix+"_p90_ms", "(ms)", quantile(lat, 0.9))
	rep.add(prefix+"_p99_ms", "(ms)", quantile(lat, 0.99))
	rep.add(prefix+".samples", "(searches)", float64(len(lat)))
}

// describePhase adds a phase's generator health lines: operations sent and
// completed, the generator's p99 lateness and whether the backlog grew.
func (b *bench) describePhase(rep *report, ph *phaseResult) {
	s := ph.stats(opSearch)
	prefix := "phase." + ph.spec.name
	rep.add(prefix+".offered", "(ops/s)", ph.spec.rate)
	rep.add(prefix+".sent", "(ops)", float64(len(ph.outcomes)))
	rep.add(prefix+".completed_ok", "(ops)", float64(len(ph.outcomes)+ph.abandoned-ph.failed()))
	rep.add(prefix+".abandoned", "(ops)", float64(ph.abandoned))
	rep.add(prefix+".search_p50", "(ms)", quantile(s.latMs, 0.5))
	rep.add(prefix+".search_p99", "(ms)", quantile(s.latMs, 0.99))
	rep.add(prefix+".gen_late_p99", "(ms)", quantile(ph.lateMs, 0.99))
	grew := 0.0
	if ph.backlogGrew() {
		grew = 1
	}
	rep.add(prefix+".backlog_grew", "(flag)", grew)
	rep.add(prefix+".server_cpu", "(ms)", float64(ph.serverCPU)/1e6)
}

// check validates every response received, then runs the post-run pass:
// it scores accuracy on the fixed evaluation queries and, on update_mix,
// checks the mutation guarantees.
func (b *bench) check(rep *report, tg *target, clients []*client, phases []*phaseResult) (*accuracy, error) {
	data := b.data.Vectors
	log := &updateLog{base: len(data), inserted: map[uint32][]float32{}, deleted: map[uint32]time.Time{}}
	for _, ph := range phases {
		for i := range ph.outcomes {
			o := &ph.outcomes[i]
			switch {
			case !o.ok():
			case o.kind == opInsert:
				log.inserted[o.delID] = b.inserts[o.idx]
			case o.kind == opDelete:
				log.deleted[o.delID] = o.done
			}
		}
	}
	ck := &checker{k: topK, vector: log.vector(data)}
	for _, ph := range phases {
		for i := range ph.outcomes {
			o := &ph.outcomes[i]
			if o.kind != opSearch || !o.ok() {
				continue
			}
			for _, nb := range ck.checkSearch(b.data.Queries[o.idx], o.body) {
				if t, ok := log.deleted[nb.ID]; ok && o.sent.After(t) {
					ck.fail("deleted ID %d returned by a search sent %v after its delete was acked", nb.ID, o.sent.Sub(t))
				}
			}
		}
	}
	answers := b.postRun(tg, clients, ck, log)

	var live func(uint32) bool
	vectors := data
	if b.w.insertFrac > 0 {
		vectors = append([][]float32(nil), data...)
		ids := make([]uint32, 0, len(log.inserted))
		for id := range log.inserted {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			for len(vectors) <= int(id) {
				vectors = append(vectors, nil)
			}
			vectors[id] = log.inserted[id]
		}
		live = func(id uint32) bool {
			_, gone := log.deleted[id]
			return vectors[id] != nil && !gone
		}
	}
	gt := groundTruth(vectors, live, b.data.Queries[:scored], topK)
	acc := &accuracy{}
	for qi, nbrs := range answers {
		if nbrs != nil {
			acc.add(nbrs, gt[qi], topK)
		}
	}
	if acc.n < scored {
		ck.fail("only %d of the %d evaluation queries were answered", acc.n, scored)
	}
	rep.violations, rep.examples = ck.violations, ck.examples
	return acc, nil
}

// postRun searches, once the traffic is over, for the fixed evaluation
// queries and, on update_mix, for each acked and undeleted insert's own
// vector, which must find its ID at distance 0. Every answer is checked, and
// a failed search is a violation. It returns the answers to the evaluation
// queries by query index, nil where the search failed.
func (b *bench) postRun(tg *target, clients []*client, ck *checker, log *updateLog) [][]neighbor {
	type probe struct {
		q  []float32
		id uint32 // insert self-check target; ^0 for an evaluation query
	}
	probes := make([]probe, 0, scored+len(log.inserted))
	for qi := 0; qi < scored; qi++ {
		probes = append(probes, probe{q: b.data.Queries[qi], id: ^uint32(0)})
	}
	for id, v := range log.inserted {
		if _, gone := log.deleted[id]; !gone {
			probes = append(probes, probe{q: v, id: id})
		}
	}
	out := make([][]neighbor, len(probes))
	status := make([]int, len(probes))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for i := w; i < len(probes); i += len(clients) {
				var o outcome
				c.do("POST", tg.url+"/v1/search", searchBody(probes[i].q), 0, &o)
				status[i] = o.status
				if o.ok() {
					out[i] = ck.checkSearch(probes[i].q, o.body)
				}
			}
		}(w, c)
	}
	wg.Wait()
	for i, p := range probes {
		if status[i] != http.StatusOK {
			ck.fail("post-run search %d: status %d", i, status[i])
			continue
		}
		if p.id == ^uint32(0) {
			continue
		}
		found := false
		for _, nb := range out[i] {
			if nb.ID == p.id && nb.Dist == 0 {
				found = true
			}
		}
		if !found {
			ck.fail("acked insert %d not found at distance 0 by its own vector", p.id)
		}
	}
	return out[:scored]
}
