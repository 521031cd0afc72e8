package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"e2lshos"
)

// servePair builds the same stack twice, once plain and once with every
// decorator the traced run installs (recording on), and serves both.
func servePair(t *testing.T, build func(rec *recorder) e2lshos.Engine, dim int) (plain, traced *httptest.Server) {
	t.Helper()
	rec := newRecorder(0)
	rec.on.Store(true)
	for i, r := range []*recorder{nil, rec} {
		eng := build(r)
		if r != nil {
			var err error
			if eng, err = wrapEngine(eng, r, "engine.batch", -1, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.(interface {
			EnableTelemetry(...e2lshos.TelemetryOption) error
		}).EnableTelemetry(); err != nil {
			t.Fatal(err)
		}
		srv, err := e2lshos.NewServer(eng, e2lshos.ServerConfig{Dim: dim, K: topK, MaxBatch: maxBatch, MaxDelay: maxDelay})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		var h http.Handler = srv.Handler()
		if r != nil {
			h = traceHandler(r, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if i == 0 {
			plain = ts
		} else {
			traced = ts
		}
	}
	return plain, traced
}

// sendBoth issues one request to both servers and requires identical status
// and body.
func sendBoth(t *testing.T, plain, traced *httptest.Server, method, path string, body []byte, id uint64) {
	t.Helper()
	var out [2][]byte
	for i, ts := range []*httptest.Server{plain, traced} {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(requestIDHeader, fmt.Sprint(id))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		out[i] = append([]byte(fmt.Sprintf("%d ", resp.StatusCode)), buf.Bytes()...)
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("%s %s: plain %s, traced %s", method, path, out[0], out[1])
	}
}

// statsOf fetches /stats without the uptime field.
func statsOf(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	delete(m, "uptime_seconds")
	return m
}

// TestDecoratedStackMatches drives the same request stream through a plain
// and a decorated stack — sharded storage, unsharded in-memory, and a
// WAL-backed storage engine with inserts and deletes — and requires
// identical responses and /stats counters.
func TestDecoratedStackMatches(t *testing.T) {
	d := smallSIFT(t, 4000, 30)
	cfg := e2lshos.Config{Sigma: sigma}
	builds := map[string]func(rec *recorder) e2lshos.Engine{
		"sharded": func(rec *recorder) e2lshos.Engine {
			scfg := e2lshos.ShardConfig(cfg, d.Vectors, 2)
			ix, err := e2lshos.NewShardedIndex(d.Vectors, 2, e2lshos.PlaceHash,
				func(i int, part [][]float32) (e2lshos.Engine, error) {
					dev, err := newFileDevice(filepath.Join(t.TempDir(), "blocks"), i)
					if err != nil {
						return nil, err
					}
					t.Cleanup(func() { dev.Close() })
					six, err := e2lshos.NewStorageIndex(part, scfg, e2lshos.WithStorageBackend(dev))
					if err != nil || rec == nil {
						return six, err
					}
					return wrapEngine(six, rec, "shard.batch", i, false)
				})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"inmem": func(*recorder) e2lshos.Engine {
			ix, err := e2lshos.NewInMemoryIndex(d.Vectors, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"wal": func(*recorder) e2lshos.Engine {
			ix, err := e2lshos.NewStorageIndex(d.Vectors, cfg, e2lshos.WithWAL(filepath.Join(t.TempDir(), "wal")))
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			plain, traced := servePair(t, build, d.Dim)
			id := uint64(1)
			for qi, q := range d.Queries {
				sendBoth(t, plain, traced, http.MethodPost, "/v1/search", searchBody(q), id)
				id++
				if name == "wal" && qi%3 == 0 {
					sendBoth(t, plain, traced, http.MethodPost, "/v1/insert", insertBody(q), id)
					sendBoth(t, plain, traced, http.MethodDelete, fmt.Sprintf("/v1/object/%d", qi), nil, id+1)
					id += 2
				}
			}
			sendBoth(t, plain, traced, http.MethodGet, "/readyz", nil, 0)
			if a, b := statsOf(t, plain), statsOf(t, traced); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("/stats differ:\nplain  %v\ntraced %v", a, b)
			}
		})
	}
}

// TestWrapEngineCapabilities pins the optional methods each decorator
// forwards: exactly the engine's own.
func TestWrapEngineCapabilities(t *testing.T) {
	d := smallSIFT(t, 1000, 1)
	six, err := e2lshos.NewStorageIndex(d.Vectors, e2lshos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := e2lshos.NewInMemoryIndex(d.Vectors, e2lshos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := e2lshos.NewShardedIndex(d.Vectors, 2, e2lshos.PlaceHash, e2lshos.StorageShardBuilder(e2lshos.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []e2lshos.Engine{six, mem, sh} {
		w, err := wrapEngine(eng, newRecorder(0), "engine.batch", -1, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capabilities(w), capabilities(eng); !slices.Equal(got, want) {
			t.Fatalf("%T: decorator has %v, engine %v", eng, got, want)
		}
	}
	if caps := capabilities(six); !slices.Contains(caps, "Insert") || !slices.Contains(caps, "RecoveryStats") {
		t.Fatalf("StorageIndex capabilities %v lack the update surface", caps)
	}
	if caps := capabilities(sh); !slices.Contains(caps, "HedgeStats") || slices.Contains(caps, "Insert") {
		t.Fatalf("ShardedIndex capabilities %v", caps)
	}
}

// TestSpansTieRequestsToBatches checks the traced stack's span tree: every
// search's server span is answered by an engine batch whose shard spans
// name it as parent, and device reads land inside shard spans.
func TestSpansTieRequestsToBatches(t *testing.T) {
	d := smallSIFT(t, 4000, 20)
	rec := newRecorder(0)
	rec.on.Store(true)
	cfg := e2lshos.ShardConfig(e2lshos.Config{Sigma: sigma}, d.Vectors, 2)
	var devs []*fileDevice
	ix, err := e2lshos.NewShardedIndex(d.Vectors, 2, e2lshos.PlaceHash,
		func(i int, part [][]float32) (e2lshos.Engine, error) {
			dev, err := newFileDevice(filepath.Join(t.TempDir(), "blocks"), i)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { dev.Close() })
			devs = append(devs, dev)
			six, err := e2lshos.NewStorageIndex(part, cfg, e2lshos.WithStorageBackend(dev))
			if err != nil {
				return nil, err
			}
			return wrapEngine(six, rec, "shard.batch", i, false)
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range devs {
		dev.setTiming(true, rec)
	}
	top, err := wrapEngine(ix, rec, "engine.batch", -1, true)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := e2lshos.NewServer(top, e2lshos.ServerConfig{Dim: d.Dim, K: topK, MaxDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(traceHandler(rec, srv.Handler()))
	defer ts.Close()
	for i, q := range d.Queries {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(searchBody(q)))
		req.Header.Set(requestIDHeader, fmt.Sprint(1<<40+i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	spans, member, _ := rec.snapshot()
	idx := indexSpans(spans)
	if n := len(idx.byName["server.http"]); n != len(d.Queries) {
		t.Fatalf("%d server.http spans for %d requests", n, len(d.Queries))
	}
	for _, s := range idx.byName["server.http"] {
		b, ok := member[s.ID]
		if !ok {
			t.Fatalf("request %d rode in no batch", s.ID)
		}
		if bs := idx.byID[b]; bs.Start < s.Start || bs.End > s.End {
			t.Fatalf("batch %d [%d,%d] outside its request [%d,%d]", b, bs.Start, bs.End, s.Start, s.End)
		}
	}
	for _, s := range idx.byName["shard.batch"] {
		if _, ok := idx.byID[s.Parent]; !ok {
			t.Fatalf("shard span %d has no parent batch", s.ID)
		}
	}
	self := selfTimes(idx, member, true)
	if self.orphans != 0 || self.device <= 0 {
		t.Fatalf("device spans: %d unattributed, %.1f µs total", self.orphans, self.device)
	}
}
