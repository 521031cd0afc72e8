package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"e2lshos"
	"e2lshos/internal/dataset"
)

// Serving configuration shared by every workload: lshserve's defaults.
const (
	topK     = 10
	sigma    = 8
	maxBatch = 32
	maxDelay = 500 * time.Microsecond
	// conns is the number of client connections (the host's two cores).
	conns = 2
	// scored is how many distinct queries are scored for accuracy against
	// the benchmark's own brute-force top-k.
	scored = 200
)

// Storage-tier sizes of the sharded workloads.
const (
	shards = 4
	// hotCacheBytes is each shard's block cache on storage_hot: room for the
	// hot pool's blocks, about a sixth of a shard's ~23 MB of index.
	hotCacheBytes = 4 << 20
	hotIODepth    = 16
	hotPool       = 64
	hotZipfS      = 1.1
)

// workload is one named traffic mix over one serving stack.
type workload struct {
	name  string
	paper dataset.PaperName
	n     int
	// lowRate and highRate are the fixed offered rates (operations per
	// second) of the low and high phases, derived once from the highest
	// rate the code the benchmark was written against sustained with search
	// p99 within 25 ms on a calm host: roughly a fifth and three quarters of
	// it.
	lowRate, highRate float64
	// searchFrac, insertFrac: the operation mix (deletes take the rest).
	searchFrac, insertFrac float64
	// pool, when set, is the number of held-out queries searches repeat
	// from, Zipf-skewed; otherwise every search sends a distinct query.
	pool  int
	build func(b *bench) (*stack, error)
}

var workloads = map[string]*workload{
	"storage_uniform": {
		name: "storage_uniform", paper: dataset.SIFT, n: 50000,
		lowRate: 90, highRate: 340,
		searchFrac: 1, build: buildSharded(false),
	},
	"storage_hot": {
		name: "storage_hot", paper: dataset.SIFT, n: 50000,
		lowRate: 110, highRate: 440,
		searchFrac: 1, pool: hotPool, build: buildSharded(true),
	},
	"inmem_highdim": {
		name: "inmem_highdim", paper: dataset.MNIST, n: 50000,
		lowRate: 125, highRate: 480,
		searchFrac: 1, build: buildInMem,
	},
	"update_mix": {
		name: "update_mix", paper: dataset.SIFT, n: 20000,
		lowRate: 180, highRate: 700,
		searchFrac: 0.75, insertFrac: 0.20, build: buildWAL,
	},
}

// stack is one built serving stack: the engine handed to the server, the
// inner engines the benchmark reads telemetry from, and its devices.
type stack struct {
	top     e2lshos.Engine          // engine handed to NewServer (decorated when traced)
	inner   e2lshos.Engine          // undecorated top engine
	storage []*e2lshos.StorageIndex // every StorageIndex, shard order
	mem     *e2lshos.InMemoryIndex
	devs    []*fileDevice
	walDir  string
	bytes   int64 // index bytes (StorageBytes or IndexBytes)

	rec     *recorder // traced runs: decorates the HTTP handler
	srv     *e2lshos.Server
	httpSrv *http.Server
	url     string
	served  chan error
}

// bench is one benchmark run's state.
type bench struct {
	w      *workload
	seed   uint64
	dir    string
	traced bool
	rec    *recorder
	data   *dataset.Dataset
	// inserts are fresh vectors from the same distribution for update_mix.
	inserts [][]float32
}

// enableTelemetry turns on the stack's stage histograms with span sampling
// at rate: 0, lshserve's default, for set-up and every untraced phase; 1
// for the traced phases.
func (st *stack) enableTelemetry(rate float64) error {
	return st.top.(interface {
		EnableTelemetry(...e2lshos.TelemetryOption) error
	}).EnableTelemetry(e2lshos.WithTracing(rate))
}

// datasetSeed fixes each workload's vectors and queries. They are the same
// for every --seed, as a benchmark suite's data is: the index (and so its
// size, radius ladder and per-query work) and the set of queries sent do not
// vary between runs, and the seed draws everything else — the order in
// which the queries and insert vectors are sent, the arrival times and the
// operation mix.
const datasetSeed = 20230328

// generate makes the workload's vectors and, when queries or inserts are
// asked for, that many distinct held-out vectors. The first scored queries
// are the fixed evaluation set, sent first in a fixed order; the run's seed
// shuffles the order of the other queries and of the insert vectors.
func (b *bench) generate(queries, inserts int) error {
	spec, err := dataset.PaperSpec(b.w.paper, 0, b.w.n, queries+inserts)
	if err != nil {
		return err
	}
	spec.Seed = datasetSeed
	d, err := dataset.Generate(spec)
	if err != nil {
		return err
	}
	qs, ins := d.Queries[:queries], d.Queries[queries:]
	rng := rand.New(rand.NewPCG(b.seed, 1))
	fixed := min(scored, queries)
	rng.Shuffle(queries-fixed, func(i, j int) { qs[fixed+i], qs[fixed+j] = qs[fixed+j], qs[fixed+i] })
	rng.Shuffle(inserts, func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	d.Queries, b.inserts = qs, ins
	b.data = d
	return nil
}

// newDevices creates one file device per shard under dir.
func (b *bench) newDevices(dir string, n int) ([]*fileDevice, error) {
	devs := make([]*fileDevice, n)
	for i := range devs {
		d, err := newFileDevice(filepath.Join(dir, fmt.Sprintf("shard%d.blocks", i)), i)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	return devs, nil
}

// buildSharded builds the storage workloads' stack: SIFT over four storage
// shards with hash placement, each on its own file device; hot adds the
// block cache and the vectored I/O engine.
func buildSharded(hot bool) func(b *bench) (*stack, error) {
	return func(b *bench) (*stack, error) {
		dir, err := os.MkdirTemp(b.dir, "stack")
		if err != nil {
			return nil, err
		}
		st := &stack{}
		if st.devs, err = b.newDevices(dir, shards); err != nil {
			return st, err
		}
		vectors := b.data.Vectors
		cfg := e2lshos.ShardConfig(e2lshos.Config{Sigma: sigma}, vectors, shards)
		st.storage = make([]*e2lshos.StorageIndex, shards)
		ix, err := e2lshos.NewShardedIndex(vectors, shards, e2lshos.PlaceHash,
			func(i int, part [][]float32) (e2lshos.Engine, error) {
				opts := []e2lshos.StorageOption{e2lshos.WithStorageBackend(st.devs[i])}
				if hot {
					opts = append(opts, e2lshos.WithBlockCache(hotCacheBytes), e2lshos.WithIOEngine(hotIODepth))
				}
				six, err := e2lshos.NewStorageIndex(part, cfg, opts...)
				if err != nil {
					return nil, err
				}
				st.storage[i] = six
				st.bytes += six.StorageBytes()
				if b.traced {
					return wrapEngine(six, b.rec, "shard.batch", i, false)
				}
				return six, nil
			})
		if err != nil {
			return st, err
		}
		st.inner = ix
		return st, nil
	}
}

// buildInMem builds inmem_highdim's stack: one unsharded InMemoryIndex.
func buildInMem(b *bench) (*stack, error) {
	ix, err := e2lshos.NewInMemoryIndex(b.data.Vectors, e2lshos.Config{Sigma: sigma})
	if err != nil {
		return nil, err
	}
	return &stack{inner: ix, mem: ix, bytes: ix.IndexBytes()}, nil
}

// buildWAL builds update_mix's stack: one crash-safe StorageIndex on a file
// device, logging to a WAL directory on the disk filesystem with an fsync on
// every append (lshserve's -fsync-every 1). The initial checkpoint is part
// of set-up.
func buildWAL(b *bench) (*stack, error) {
	dir, err := os.MkdirTemp(b.dir, "stack")
	if err != nil {
		return nil, err
	}
	st := &stack{walDir: filepath.Join(dir, "wal")}
	if st.devs, err = b.newDevices(dir, 1); err != nil {
		return st, err
	}
	six, err := e2lshos.NewStorageIndex(b.data.Vectors, e2lshos.Config{Sigma: sigma},
		e2lshos.WithStorageBackend(st.devs[0]), e2lshos.WithWAL(st.walDir))
	if err != nil {
		return st, err
	}
	st.inner, st.storage, st.bytes = six, []*e2lshos.StorageIndex{six}, six.StorageBytes()
	return st, nil
}

// setUp builds the workload's stack and starts serving it; the returned
// duration is index build (and WAL initial checkpoint) until the server
// answers /healthz.
func (b *bench) setUp() (*stack, time.Duration, error) {
	t0 := time.Now()
	st, err := b.w.build(b)
	if err != nil {
		if st != nil {
			st.close()
		}
		return nil, 0, err
	}
	st.top, st.rec = st.inner, b.rec
	if b.traced {
		if st.top, err = wrapEngine(st.inner, b.rec, "engine.batch", -1, true); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	if err := st.enableTelemetry(0); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := st.serve(b.data.Dim); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// serve starts a fresh Server over st.top on a loopback port and waits
// until it answers.
func (st *stack) serve(dim int) error {
	srv, err := e2lshos.NewServer(st.top, e2lshos.ServerConfig{
		Dim: dim, K: topK, MaxBatch: maxBatch, MaxDelay: maxDelay,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	st.srv = srv
	handler := srv.Handler()
	if st.rec != nil {
		handler = traceHandler(st.rec, handler)
	}
	st.httpSrv = &http.Server{Handler: handler}
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	c := newClient()
	defer c.close()
	_, err = c.get(st.url + "/healthz")
	return err
}

// stopServing shuts the HTTP server and the coalescer down.
func (st *stack) stopServing() {
	if st.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = st.httpSrv.Shutdown(ctx) // a forced close below still stops it
	_ = st.httpSrv.Close()
	<-st.served
	st.srv.Close()
	st.httpSrv = nil
}

// close stops serving and releases the devices.
func (st *stack) close() {
	st.stopServing()
	for _, d := range st.devs {
		d.Close()
	}
}

// idHeadroom is how many inserts the index accepts before its ID space
// (bits.Len(n-1) bits) is exhausted.
func idHeadroom(n int) int {
	return 1<<bits.Len(uint(n-1)) - n
}

// searchBody encodes a /v1/search request.
func searchBody(q []float32) []byte {
	b, _ := json.Marshal(struct {
		Query []float32 `json:"query"`
	}{q}) // float32 slices always encode
	return b
}

// insertBody encodes a /v1/insert request.
func insertBody(v []float32) []byte {
	b, _ := json.Marshal(struct {
		Vector []float32 `json:"vector"`
	}{v})
	return b
}

// zipf draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
