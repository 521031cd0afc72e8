// Command perfbench is the end-to-end serving benchmark. It starts a serving
// process (itself, with --serve) that builds an E2LSHoS stack — an engine
// from the e2lshos facade behind e2lshos.NewServer on a loopback port — and
// drives /v1/search, /v1/insert and DELETE /v1/object/{id} with open-loop
// traffic, checks every answer, and prints the workload's metrics. With
// --trace 1 it instead decorates every layer boundary and reports per-layer
// metrics. See README.md for the workloads and every metric's definition.
//
//	perfbench --workload storage_uniform --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is one run's result.
type report struct {
	attempted, failed int
	violations        int
	examples          []string
	metrics           []metric
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: storage_uniform, storage_hot, inmem_highdim or update_mix")
		seed    = flag.Uint64("seed", 1, "seed for vectors, queries, arrivals and operation choices")
		seconds = flag.Int("seconds", 16, "measured traffic per run, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/run", "directory for block devices, WAL directories and span dumps")
		serve   = flag.Bool("serve", false, "internal: run as the serving child process")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *serve {
		b := &bench{w: w, seed: *seed, dir: *workdir, traced: *trace == 1}
		if b.traced {
			b.rec = newRecorder(0)
		}
		if err := b.serveMain(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench --serve: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, dir: dir, traced: *trace == 1}
	if b.traced {
		b.rec = newRecorder(1 << 40)
	}
	rep, err := b.run(time.Duration(*seconds) * time.Second)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, e := range rep.examples {
		fmt.Printf("violation: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.violations == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.metrics {
		if !m.reported() {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs and finite floats always encode
	fmt.Println(string(line))
	if rep.violations > 0 {
		os.Exit(1)
	}
}

// reported tells the result-line metrics (BENCHMARK.json's end_to_end or
// per_layer lists) from the extra lines printed for people.
func (m metric) reported() bool { return m.unit != "" && m.unit[0] != '(' }
