package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"e2lshos"
	"e2lshos/internal/telemetry"
)

// snap is everything the per-layer metrics difference across the traced
// phases: the server's /stats and /metrics, the devices, the storage
// engines' cache, I/O-engine and WAL counters, and the Go runtime.
type snap struct {
	at       time.Time
	stats    map[string]float64
	prom     map[string]float64
	dev      deviceCounters
	devHist  telemetry.HistSnapshot
	cache    [3]int64 // hits, misses, prefetched
	io       e2lshos.IOEngineCounters
	wal      e2lshos.RecoveryStats
	walBytes int64
	rt       [4]float64 // mallocs, alloc bytes, GC CPU s, total CPU s
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (b *bench) takeSnap(st *stack) (*snap, error) {
	s := &snap{at: time.Now()}
	c := newClient()
	defer c.close()
	raw, err := c.get(st.url + "/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &s.stats); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	if raw, err = c.get(st.url + "/metrics"); err != nil {
		return nil, err
	}
	s.prom = parseProm(raw)
	s.dev = sumDevices(st.devs)
	for _, d := range st.devs {
		var h telemetry.HistSnapshot
		d.readLat.Snapshot(&h)
		s.devHist.Merge(&h)
	}
	for _, six := range st.storage {
		h, m, p := six.CacheStats()
		s.cache[0] += h
		s.cache[1] += m
		s.cache[2] += p
		c := six.IOCounters()
		s.io.Reads += c.Reads
		s.io.PhysicalReads += c.PhysicalReads
		s.io.CoalescedReads += c.CoalescedReads
		s.io.DedupedReads += c.DedupedReads
		s.io.RetriedReads += c.RetriedReads
		s.wal = six.RecoveryStats()
	}
	if st.walDir != "" {
		logs, _ := filepath.Glob(filepath.Join(st.walDir, "wal-*.log")) // the pattern is valid
		for _, l := range logs {
			if fi, err := os.Stat(l); err == nil {
				s.walBytes += fi.Size()
			}
		}
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	for i := range ms {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = ms[i].Value.Float64()
		}
	}
	return s, nil
}

// parseProm reads Prometheus text exposition into name{labels} → value.
func parseProm(raw []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// startTracing switches the serving stack to the traced configuration:
// the old server stops, span sampling goes to 1.0 with fresh telemetry,
// every decorator and device starts recording, and a fresh server (fresh
// request and coalescer histograms) takes over. It returns the new URL and
// the counters the per-layer metrics are differenced against.
func (b *bench) startTracing(st *stack) (string, *snap, error) {
	st.stopServing()
	if err := st.enableTelemetry(1); err != nil {
		return "", nil, err
	}
	b.rec.on.Store(true)
	for _, d := range st.devs {
		d.setTiming(true, b.rec)
	}
	if err := st.serve(b.data.Dim); err != nil {
		return "", nil, err
	}
	before, err := b.takeSnap(st)
	return st.url, before, err
}

// stopTracing ends recording, derives the server-side per-layer metrics
// and writes the server's spans next to the run directory.
func (b *bench) stopTracing(st *stack, before *snap) (*layerReport, error) {
	after, err := b.takeSnap(st)
	if err != nil {
		return nil, err
	}
	b.rec.on.Store(false)
	for _, d := range st.devs {
		d.setTiming(false, nil)
	}
	rep := &report{}
	b.layerMetrics(rep, st, before, after)
	out := &layerReport{ServerMeanUs: 1e6 * ratio(
		after.prom["lsh_http_request_seconds_sum"]-before.prom["lsh_http_request_seconds_sum"],
		after.prom["lsh_http_request_seconds_count"]-before.prom["lsh_http_request_seconds_count"])}
	for _, m := range rep.metrics {
		out.Metrics = append(out.Metrics, wireMetric{m.name, m.unit, m.value})
	}
	if err := b.rec.dump(b.spanPath("server")); err != nil {
		return nil, fmt.Errorf("writing span dump: %w", err)
	}
	return out, nil
}

// spanPath names a traced run's span dump: next to the run directory, so
// it outlives the run.
func (b *bench) spanPath(side string) string {
	return filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d-%s.jsonl", b.w.name, b.seed, side))
}

// reporter is an engine's telemetry summary surface.
type reporter interface {
	TelemetryReport() []e2lshos.LatencySummary
}

// stageSums adds up Count×Mean per stage over engines' TelemetryReport.
func stageSums(engines []reporter) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, e := range engines {
		for _, row := range e.TelemetryReport() {
			out[row.Stage] += time.Duration(row.Count) * row.Mean
		}
	}
	return out
}

// stageQuantiles returns, over engines, the count-weighted mean p50 and the
// largest p99 of one stage (summaries from separate engines cannot be
// merged exactly).
func stageQuantiles(engines []reporter, stage string) (p50, p99 time.Duration) {
	var n uint64
	var w float64
	for _, e := range engines {
		for _, row := range e.TelemetryReport() {
			if row.Stage != stage {
				continue
			}
			n += row.Count
			w += float64(row.Count) * float64(row.P50)
			p99 = max(p99, row.P99)
		}
	}
	if n > 0 {
		p50 = time.Duration(w / float64(n))
	}
	return p50, p99
}

// layerMetrics derives the server-side per-layer metrics of the traced
// phases from the counters before and after them and the recorded spans.
func (b *bench) layerMetrics(rep *report, st *stack, before, after *snap) {
	d := func(key string) float64 { return after.stats[key] - before.stats[key] }
	queries := d("queries")
	perQ := func(v float64) float64 { return ratio(v, queries) }
	wall := after.at.Sub(before.at)
	inserts, deletes := d("inserts"), d("deletes")
	ops := d("served") + inserts + deletes
	spans, member, dropped := b.rec.snapshot()
	idx := indexSpans(spans)

	// coalesce
	rep.add("coalesce.wait_us.p50", "us", after.prom[`lsh_coalesce_wait_seconds{quantile="0.5"}`]*1e6)
	rep.add("coalesce.wait_us.p99", "us", after.prom[`lsh_coalesce_wait_seconds{quantile="0.99"}`]*1e6)
	batches := idx.byName["engine.batch"]
	var batched float64
	for _, s := range batches {
		batched += float64(s.N)
	}
	rep.add("coalesce.batch_size.mean", "queries", ratio(batched, float64(len(batches))))
	rep.add("coalesce.batches", "count", float64(len(batches)))
	rep.add("coalesce.shed", "count", d("shed"))

	// engine
	rep.add("engine.batch_us.mean", "us", meanDur(batches))
	topRep := []reporter{st.inner.(reporter)}
	p50, p99 := stageQuantiles(topRep, "total")
	rep.add("stage.total.us.p50", "us", us(p50))
	rep.add("stage.total.us.p99", "us", us(p99))

	// shard
	subs := idx.byName["shard.batch"]
	subUs := make([]float64, len(subs))
	for i, s := range subs {
		subUs[i] = us(s.dur())
	}
	rep.add("shard.subquery_us.mean", "us", mean(subUs))
	rep.add("shard.subquery_us.p99", "us", quantile(subUs, 0.99))
	rep.add("shard.straggler_ratio", "ratio", stragglerRatio(subs))
	_, p99 = stageQuantiles(topRep, "shard_wait")
	rep.add("stage.shard_wait.us.p99", "us", us(p99))

	// engine-internal stages, summed over the engines that ran them
	var inner []reporter
	for _, six := range st.storage {
		inner = append(inner, six)
	}
	if st.mem != nil {
		inner = append(inner, st.mem)
	}
	sums := stageSums(inner)
	stageUs := func(name string) float64 { return perQ(us(sums[name])) }
	dev := after.dev.sub(before.dev)
	storage := len(st.storage) > 0

	// diskindex (storage engines only)
	disk := func(name string, v float64) {
		if !storage {
			v = 0
		}
		rep.add(name, unitOf(name), v)
	}
	disk("diskindex.n_io_per_query", perQ(d("n_io")))
	disk("diskindex.table_ios_per_query", perQ(d("table_ios")))
	disk("diskindex.bucket_ios_per_query", perQ(d("bucket_ios")))
	disk("diskindex.radii_per_query", perQ(d("radii")))
	disk("diskindex.probes_per_query", perQ(d("probes")))
	disk("diskindex.nonempty_probe_frac", ratio(d("non_empty_probes"), d("probes")))
	disk("diskindex.entries_scanned_per_query", perQ(d("entries_scanned")))
	disk("diskindex.fp_rejected_frac", ratio(d("fp_rejected"), d("entries_scanned")))
	disk("diskindex.duplicate_frac", ratio(d("duplicates"), d("entries_scanned")))
	disk("diskindex.checked_per_query", perQ(d("checked")))
	disk("stage.round.us_per_query", stageUs("round"))
	disk("stage.io.us_per_query", stageUs("io"))
	disk("diskindex.io_overhead_us_per_query", stageUs("io")-perQ(float64(dev.readNs)/1e3))

	// memindex (in-memory engine only)
	mem := func(name string, v float64) {
		if st.mem == nil {
			v = 0
		}
		rep.add(name, unitOf(name), v)
	}
	mem("memindex.radii_per_query", perQ(d("radii")))
	mem("memindex.probes_per_query", perQ(d("probes")))
	mem("memindex.checked_per_query", perQ(d("checked")))
	mem("memindex.ios_at_inf_per_query", perQ(d("ios_at_inf")))

	// lsh projection/hash and verify
	rep.add("stage.project.us_per_query", "us", stageUs("project"))
	rep.add("stage.verify.us_per_query", "us", stageUs("verify"))
	rep.add("verify.ns_per_checked", "ns", ratio(float64(sums["verify"]), d("checked")))

	// blockstore (the benchmark's file devices)
	var devHist telemetry.HistSnapshot
	devHist = after.devHist
	for i := range devHist.Counts {
		devHist.Counts[i] -= before.devHist.Counts[i]
	}
	devHist.Count -= before.devHist.Count
	devHist.Sum -= before.devHist.Sum
	rep.add("blockstore.reads_per_query", "blocks", perQ(float64(dev.reads)))
	rep.add("blockstore.ops_per_query", "ops", perQ(float64(dev.ops)))
	rep.add("blockstore.read_us.mean", "us", ratio(float64(dev.readNs)/1e3, float64(dev.ops)))
	rep.add("blockstore.read_us.p99", "us", us(devHist.Quantile(0.99)))
	busy := 0.0
	if len(st.devs) > 0 {
		busy = ratio(float64(dev.busy), float64(wall)*float64(len(st.devs)))
	}
	rep.add("blockstore.busy_frac", "fraction", busy)
	rep.add("blockstore.writes_per_update", "blocks", ratio(float64(dev.writes), inserts+deletes))
	rep.add("blockstore.write_us.mean", "us", ratio(float64(dev.writeNs)/1e3, float64(dev.writes)))

	// blockcache
	hits := float64(after.cache[0] - before.cache[0])
	misses := float64(after.cache[1] - before.cache[1])
	rep.add("blockcache.hit_frac", "fraction", ratio(hits, hits+misses))
	rep.add("blockcache.misses_per_query", "blocks", perQ(misses))
	rep.add("blockcache.prefetched_per_query", "blocks", perQ(float64(after.cache[2]-before.cache[2])))

	// ioengine
	reads := float64(after.io.Reads - before.io.Reads)
	rep.add("ioengine.reads_per_query", "blocks", perQ(reads))
	rep.add("ioengine.physical_per_read", "ratio", ratio(float64(after.io.PhysicalReads-before.io.PhysicalReads), reads))
	rep.add("ioengine.coalesced_frac", "fraction", ratio(float64(after.io.CoalescedReads-before.io.CoalescedReads), reads))
	rep.add("ioengine.deduped_frac", "fraction", ratio(float64(after.io.DedupedReads-before.io.DedupedReads), reads))
	rep.add("ioengine.retried", "count", float64(after.io.RetriedReads-before.io.RetriedReads))
	p50, _ = stageQuantiles(inner, "io_wait")
	_, p99 = stageQuantiles(inner, "io_op")
	if reads == 0 {
		p50, p99 = 0, 0
	}
	rep.add("stage.io_wait.us.p50", "us", us(p50))
	rep.add("stage.io_op.us.p99", "us", us(p99))

	// wal / update path
	insUs := spanUs(idx.byName["update.insert"])
	delUs := spanUs(idx.byName["update.delete"])
	rep.add("update.insert_us.p50", "us", quantile(insUs, 0.5))
	rep.add("update.insert_us.p99", "us", quantile(insUs, 0.99))
	rep.add("update.delete_us.p50", "us", quantile(delUs, 0.5))
	updates := inserts + deletes
	walBytes := float64(after.walBytes - before.walBytes)
	rep.add("wal.appends_per_update", "appends", ratio(float64(after.wal.Appends-before.wal.Appends), updates))
	rep.add("wal.bytes_per_update", "bytes", ratio(walBytes, updates))
	rep.add("wal.write_amp", "ratio", ratio(walBytes, inserts*float64(b.data.Dim)*4))

	// Go runtime, per completed operation, and GC's share of process CPU
	rep.add("runtime.allocs_per_op", "allocs", ratio(after.rt[0]-before.rt[0], float64(ops)))
	rep.add("runtime.alloc_bytes_per_op", "bytes", ratio(after.rt[1]-before.rt[1], float64(ops)))
	rep.add("runtime.gc_cpu_frac", "fraction", ratio(after.rt[2]-before.rt[2], after.rt[3]-before.rt[3]))

	// self times along the blocking path, from the span tree
	self := selfTimes(idx, member, storage && len(st.storage) > 1)
	rep.add("self.server_http_us_per_search", "us", self.http)
	rep.add("self.engine_us_per_batch", "us", self.engine)
	rep.add("self.shard_us_per_subquery", "us", self.shard)
	rep.add("self.device_us_per_query", "us", perQ(self.device))
	rep.add("spans.recorded", "(spans)", float64(len(spans)))
	rep.add("spans.dropped", "(spans)", float64(dropped))
	rep.add("spans.unattributed_device", "(spans)", float64(self.orphans))
}

// unitOf infers a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.Contains(name, ".us"), strings.Contains(name, "_us"):
		return "us"
	}
	return "count"
}

func spanUs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = us(s.dur())
	}
	return out
}

func meanDur(ss []span) float64 { return mean(spanUs(ss)) }

// spanIndex groups spans by name and by ID.
type spanIndex struct {
	byName map[string][]span
	byID   map[uint64]span
}

func indexSpans(spans []span) spanIndex {
	idx := spanIndex{byName: map[string][]span{}, byID: make(map[uint64]span, len(spans))}
	for _, s := range spans {
		idx.byName[s.Name] = append(idx.byName[s.Name], s)
		idx.byID[s.ID] = s
	}
	return idx
}

// stragglerRatio is the mean over scatters (engine batches with several
// shard spans) of the slowest shard's duration over the mean shard's.
func stragglerRatio(subs []span) float64 {
	byBatch := map[uint64][]time.Duration{}
	for _, s := range subs {
		byBatch[s.Parent] = append(byBatch[s.Parent], s.dur())
	}
	var sum float64
	n := 0
	for _, ds := range byBatch {
		if len(ds) < 2 {
			continue
		}
		var tot, mx time.Duration
		for _, d := range ds {
			tot += d
			mx = max(mx, d)
		}
		sum += ratio(float64(mx), float64(tot)/float64(len(ds)))
		n++
	}
	return ratio(sum, float64(n))
}

// selfResult holds mean self times per layer.
type selfResult struct {
	http, engine, shard float64 // µs per span
	device              float64 // total device µs (divide per query)
	orphans             int     // device spans no parent interval contains
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of it covered by its children. Children are the engine batch a
// search rode in (server.http: what remains is JSON decoding and encoding,
// validation and the coalescer wait), the shard sub-queries of a batch (engine), and
// the device operations inside a sub-query's interval on that shard's
// device (shard; for an unsharded storage engine, device operations are
// children of the engine batch or update span containing them).
func selfTimes(idx spanIndex, member map[uint64]uint64, sharded bool) selfResult {
	var r selfResult
	children := map[uint64][][2]int64{}
	addChild := func(parent uint64, s span) {
		children[parent] = append(children[parent], [2]int64{s.Start, s.End})
	}
	var searches []span // server.http spans of requests a batch answered
	for _, s := range idx.byName["server.http"] {
		if b, ok := member[s.ID]; ok {
			searches = append(searches, s)
			if bs, ok := idx.byID[b]; ok {
				addChild(s.ID, bs)
			}
		}
	}
	for _, s := range idx.byName["shard.batch"] {
		addChild(s.Parent, s)
	}
	// Device operations: attribute each to the unique containing span on
	// its device.
	var hosts []span
	if sharded {
		hosts = idx.byName["shard.batch"]
	} else {
		hosts = append(append(append([]span(nil), idx.byName["engine.batch"]...),
			idx.byName["update.insert"]...), idx.byName["update.delete"]...)
	}
	byShard := map[int][]span{}
	for _, h := range hosts {
		shard := h.Shard
		if !sharded {
			shard = 0
		}
		byShard[shard] = append(byShard[shard], h)
	}
	for _, hs := range byShard {
		sort.Slice(hs, func(i, j int) bool { return hs[i].Start < hs[j].Start })
	}
	var devTotal int64
	for _, name := range []string{"blockstore.read", "blockstore.write"} {
		for _, s := range idx.byName[name] {
			devTotal += s.End - s.Start
			hs := byShard[s.Shard]
			// Hosts starting at or before s; scan back for containers.
			i := sort.Search(len(hs), func(i int) bool { return hs[i].Start > s.Start })
			var found []uint64
			for j := i - 1; j >= 0 && len(found) < 2 && s.Start-hs[j].Start < int64(time.Second); j-- {
				if hs[j].End >= s.End {
					found = append(found, hs[j].ID)
				}
			}
			if len(found) != 1 {
				r.orphans++
				continue
			}
			addChild(found[0], s)
		}
	}
	r.device = float64(devTotal) / 1e3
	selfOf := func(ss []span) float64 {
		if len(ss) == 0 {
			return 0
		}
		var tot float64
		for _, s := range ss {
			tot += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e3
		}
		return tot / float64(len(ss))
	}
	r.http = selfOf(searches)
	r.engine = selfOf(idx.byName["engine.batch"])
	r.shard = selfOf(idx.byName["shard.batch"])
	return r
}

// covered is how much of s's interval the union of ivs covers.
func covered(s span, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var tot int64
	cur := [2]int64{-1, -1}
	flush := func() {
		lo, hi := max(cur[0], s.Start), min(cur[1], s.End)
		if hi > lo {
			tot += hi - lo
		}
	}
	for _, iv := range ivs {
		if iv[0] > cur[1] {
			flush()
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	flush()
	return tot
}
