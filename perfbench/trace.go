package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"e2lshos"
)

// span is one timed call across a layer boundary, recorded by the traced
// run's decorators and the client. Times are wall-clock Unix nanoseconds,
// comparable across the client and serving processes. Req is the request ID for client and
// update spans and the batch ID for engine and shard spans; Parent is the
// span that caused this one (0 when the decorator cannot know it — device
// spans are attributed to their shard span at analysis time).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Shard  int    `json:"shard"`
	N      int    `json:"n,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLimit bounds the spans kept in memory per traced run (~64 bytes
// each); later spans are counted as dropped.
const spanLimit = 2_000_000

// recorder collects spans in memory while on; they are analysed and written
// out after the run. A nil recorder records nothing.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	seed   maphash.Seed

	mu      sync.Mutex
	spans   []span              // guarded by mu
	dropped int                 // guarded by mu
	pending map[uint64][]uint64 // guarded by mu: request key → unclaimed request IDs
	member  map[uint64]uint64   // guarded by mu: request ID → batch ID
}

// newRecorder returns a recorder whose IDs start after base, so the client's
// and the server's spans never share an ID.
func newRecorder(base uint64) *recorder {
	r := &recorder{
		seed:    maphash.MakeSeed(),
		pending: make(map[uint64][]uint64),
		member:  make(map[uint64]uint64),
	}
	r.nextID.Store(base)
	return r
}

// recording reports whether spans are being kept.
func (r *recorder) recording() bool { return r != nil && r.on.Load() }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

// add stores sp with the given interval, assigning an ID when it has none.
func (r *recorder) add(sp span, start, end time.Time) uint64 {
	if !r.recording() {
		return 0
	}
	if sp.ID == 0 {
		sp.ID = r.newID()
	}
	sp.Start = start.UnixNano()
	sp.End = end.UnixNano()
	r.mu.Lock()
	if len(r.spans) < spanLimit {
		r.spans = append(r.spans, sp)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return sp.ID
}

// vecKey fingerprints a vector's bytes, the key that ties a request body to
// the query slice the engine later sees.
func (r *recorder) vecKey(v []float32) uint64 {
	if len(v) == 0 {
		return 0
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	return maphash.Bytes(r.seed, b)
}

// deleteKey is the request key of DELETE /v1/object/{id}.
func deleteKey(id uint32) uint64 { return 1<<63 | uint64(id) }

// expect registers request reqID as carrying key, before it is sent.
func (r *recorder) expect(key, reqID uint64) {
	if !r.recording() {
		return
	}
	r.mu.Lock()
	r.pending[key] = append(r.pending[key], reqID)
	r.mu.Unlock()
}

// claim returns the oldest unclaimed request carrying key and records that
// it rode in batch (0 when no request matches).
func (r *recorder) claim(key, batch uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.pending[key]
	if len(ids) == 0 {
		return 0
	}
	id := ids[0]
	if len(ids) == 1 {
		delete(r.pending, key)
	} else {
		r.pending[key] = ids[1:]
	}
	if batch != 0 {
		r.member[id] = batch
	}
	return id
}

// dump writes the spans as JSON lines, oldest first.
func (r *recorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot returns the recorded spans and the request→batch membership.
func (r *recorder) snapshot() ([]span, map[uint64]uint64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	member := make(map[uint64]uint64, len(r.member))
	for k, v := range r.member {
		member[k] = v
	}
	return append([]span(nil), r.spans...), member, r.dropped
}

// batchKey carries the engine batch ID from the top decorator to the shard
// decorators through the router's per-shard contexts.
type batchKey struct{}

// tracedEngine decorates an Engine: every Search and BatchSearch becomes a
// span. The top decorator (the engine handed to NewServer) claims the
// requests whose queries it received and stamps its batch ID into the
// context; shard decorators read it as their parent.
type tracedEngine struct {
	inner e2lshos.Engine
	rec   *recorder
	name  string
	shard int
	top   bool
}

// begin opens the span of one call over queries: it claims the requests
// (top decorator) or reads the parent batch from ctx (shard decorators).
func (t *tracedEngine) begin(ctx context.Context, queries [][]float32) (context.Context, span, time.Time) {
	sp := span{ID: t.rec.newID(), Name: t.name, Shard: t.shard, N: len(queries)}
	sp.Req = sp.ID
	if t.top {
		for _, q := range queries {
			if req := t.rec.claim(t.rec.vecKey(q), sp.ID); sp.Parent == 0 {
				sp.Parent = req
			}
		}
		ctx = context.WithValue(ctx, batchKey{}, sp.ID)
	} else {
		sp.Parent, _ = ctx.Value(batchKey{}).(uint64)
	}
	return ctx, sp, time.Now()
}

func (t *tracedEngine) BatchSearch(ctx context.Context, queries [][]float32, opts ...e2lshos.SearchOption) ([]e2lshos.Result, e2lshos.Stats, error) {
	if !t.rec.recording() {
		return t.inner.BatchSearch(ctx, queries, opts...)
	}
	ctx, sp, start := t.begin(ctx, queries)
	res, st, err := t.inner.BatchSearch(ctx, queries, opts...)
	t.rec.add(sp, start, time.Now())
	return res, st, err
}

func (t *tracedEngine) Search(ctx context.Context, q []float32, opts ...e2lshos.SearchOption) (e2lshos.Result, e2lshos.Stats, error) {
	if !t.rec.recording() {
		return t.inner.Search(ctx, q, opts...)
	}
	ctx, sp, start := t.begin(ctx, [][]float32{q})
	res, st, err := t.inner.Search(ctx, q, opts...)
	t.rec.add(sp, start, time.Now())
	return res, st, err
}

func (t *tracedEngine) EnableTelemetry(opts ...e2lshos.TelemetryOption) error {
	return t.inner.(interface {
		EnableTelemetry(...e2lshos.TelemetryOption) error
	}).EnableTelemetry(opts...)
}

func (t *tracedEngine) EnableAutotune(opts ...e2lshos.AutotuneOption) error {
	return t.inner.(interface {
		EnableAutotune(...e2lshos.AutotuneOption) error
	}).EnableAutotune(opts...)
}

// tracedSharded adds the ShardedIndex surface the server asserts on.
type tracedSharded struct {
	*tracedEngine
	ix *e2lshos.ShardedIndex
}

func (t tracedSharded) ProbeStorage() error        { return t.ix.ProbeStorage() }
func (t tracedSharded) SetIODepth(n int) bool      { return t.ix.SetIODepth(n) }
func (t tracedSharded) HedgeStats() (int64, int64) { return t.ix.HedgeStats() }

// tracedStorage adds the StorageIndex surface the server and router assert
// on; Insert and Delete become update spans tied to their requests.
type tracedStorage struct {
	*tracedEngine
	ix *e2lshos.StorageIndex
}

func (t tracedStorage) Insert(v []float32) (uint32, error) {
	if !t.rec.recording() {
		return t.ix.Insert(v)
	}
	start := time.Now()
	req := t.rec.claim(t.rec.vecKey(v), 0)
	id, err := t.ix.Insert(v)
	t.rec.add(span{Parent: req, Name: "update.insert", Req: req, Shard: t.shard}, start, time.Now())
	return id, err
}

func (t tracedStorage) Delete(id uint32) (bool, error) {
	if !t.rec.recording() {
		return t.ix.Delete(id)
	}
	start := time.Now()
	req := t.rec.claim(deleteKey(id), 0)
	ok, err := t.ix.Delete(id)
	t.rec.add(span{Parent: req, Name: "update.delete", Req: req, Shard: t.shard}, start, time.Now())
	return ok, err
}

func (t tracedStorage) RecoveryStats() e2lshos.RecoveryStats { return t.ix.RecoveryStats() }
func (t tracedStorage) ProbeStorage() error                  { return t.ix.ProbeStorage() }
func (t tracedStorage) IODepth() int                         { return t.ix.IODepth() }
func (t tracedStorage) SetIODepth(n int) bool                { return t.ix.SetIODepth(n) }

// capabilities lists the optional methods the serving stack type-asserts
// on (serve.go, serve_update.go, sharded.go) that v implements.
func capabilities(v any) []string {
	var out []string
	probe := func(name string, ok bool) {
		if ok {
			out = append(out, name)
		}
	}
	_, ok := v.(interface {
		Insert([]float32) (uint32, error)
	})
	probe("Insert", ok)
	_, ok = v.(interface{ Delete(uint32) (bool, error) })
	probe("Delete", ok)
	_, ok = v.(interface {
		RecoveryStats() e2lshos.RecoveryStats
	})
	probe("RecoveryStats", ok)
	_, ok = v.(interface{ ProbeStorage() error })
	probe("ProbeStorage", ok)
	_, ok = v.(interface{ IODepth() int })
	probe("IODepth", ok)
	_, ok = v.(interface{ SetIODepth(int) bool })
	probe("SetIODepth", ok)
	_, ok = v.(interface {
		EnableTelemetry(...e2lshos.TelemetryOption) error
	})
	probe("EnableTelemetry", ok)
	_, ok = v.(interface {
		EnableAutotune(...e2lshos.AutotuneOption) error
	})
	probe("EnableAutotune", ok)
	_, ok = v.(interface{ HedgeStats() (int64, int64) })
	probe("HedgeStats", ok)
	return out
}

// wrapEngine decorates eng for the traced run. The decorator exposes
// exactly the optional methods eng has, so the server behaves the same over
// either; an engine type without a matching decorator is an error rather
// than a silently different stack.
func wrapEngine(eng e2lshos.Engine, rec *recorder, name string, shard int, top bool) (e2lshos.Engine, error) {
	base := &tracedEngine{inner: eng, rec: rec, name: name, shard: shard, top: top}
	var out e2lshos.Engine
	switch ix := eng.(type) {
	case *e2lshos.ShardedIndex:
		out = tracedSharded{base, ix}
	case *e2lshos.StorageIndex:
		out = tracedStorage{base, ix}
	case *e2lshos.InMemoryIndex:
		out = base
	default:
		return nil, fmt.Errorf("no decorator for engine type %T", eng)
	}
	if got, want := fmt.Sprint(capabilities(out)), fmt.Sprint(capabilities(eng)); got != want {
		return nil, fmt.Errorf("decorator for %T exposes %s, engine has %s", eng, got, want)
	}
	return out, nil
}
