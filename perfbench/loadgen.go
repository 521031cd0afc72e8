package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The load generator is open loop: a single goroutine draws Poisson arrival
// times at the phase's offered rate and queues each operation when it is
// due, whatever the server is doing. conns workers, one keep-alive
// connection each, send the queued operations, so at most conns requests
// are in flight and an operation that finds every connection busy waits in
// the client queue. Every latency is timed from the operation's due time,
// which charges that wait, and any lateness of the generator itself, to the
// request.

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search", "insert", "delete"}[k]
}

// spinWindow is how long before a due time the generator stops sleeping and
// spins. Kernel timer slack is ~50µs for ordinary threads; Go's own timers
// round sleeps to whole milliseconds, which is why the generator sleeps
// with nanosleep instead of time.Sleep.
const spinWindow = 150 * time.Microsecond

// sleepUntil blocks until t: nanosleep to spinWindow before it, then spin.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= spinWindow {
			break
		}
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep re-checks the clock
	}
	for time.Now().Before(t) {
	}
}

// op is one scheduled operation.
type op struct {
	kind opKind
	idx  int // query index (search) or insert-vector index (insert)
	due  time.Time
}

// outcome is what happened to one operation.
type outcome struct {
	kind      opKind
	idx       int
	delID     uint32 // delete target
	due, sent time.Time
	done      time.Time
	status    int // HTTP status; 0 on a transport error
	body      []byte
	reqBytes  int
	respBytes int
}

func (o *outcome) ok() bool         { return o.status == http.StatusOK }
func (o *outcome) latency() float64 { return float64(o.done.Sub(o.due)) / 1e6 }

// phaseSpec describes one phase of traffic.
type phaseSpec struct {
	name string
	rate float64 // offered operations per second (all kinds)
	dur  time.Duration
}

// drainLimit is how long after its end a phase keeps sending operations
// still queued; the rest are abandoned and counted as failed.
const drainLimit = 10 * time.Second

// phaseResult is one phase's outcomes and generator health.
type phaseResult struct {
	spec      phaseSpec
	start     time.Time
	end       time.Time // scheduled end
	outcomes  []outcome
	abandoned int
	lateMs    []float64 // generator lateness per operation
	backlog   []int     // queued+in-flight operations at each quarter of the phase
	// serverCPU is the CPU time the serving process used from the phase's
	// start until its last operation completed (see host.go).
	serverCPU time.Duration
}

// target is the server under load plus what the workload sends it.
type target struct {
	url     string
	bodies  [][]byte                       // pre-encoded /v1/search bodies, by query index
	inserts [][]byte                       // pre-encoded /v1/insert bodies, by insert index
	pick    func(r *rand.Rand, seq int) op // chooses the next operation
	rec     *recorder
	// serverCPU reads the serving process's CPU clock.
	serverCPU func() time.Duration

	// warm selects the warm-up's query choice.
	warm   bool
	mu     sync.Mutex
	acked  []uint32 // inserted IDs acked and not yet chosen for deletion
	delRng *rand.Rand
}

// client is one worker's keep-alive connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and fills the outcome's status, body and times.
// A nonzero reqID is sent in the request-ID header of traced runs.
func (c *client) do(method, url string, body []byte, reqID uint64, o *outcome) {
	o.sent = time.Now()
	o.reqBytes = len(body)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		o.done = time.Now()
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		o.done = time.Now()
		return
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if err != nil {
		return
	}
	o.status = resp.StatusCode
	o.respBytes = len(o.body)
}

// get fetches a JSON or text endpoint (stats scrapes between phases).
func (c *client) get(url string) ([]byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// exec runs one operation on c.
func (t *target) exec(c *client, p op, reqID uint64) outcome {
	o := outcome{kind: p.kind, idx: p.idx, due: p.due}
	switch p.kind {
	case opSearch:
		c.do(http.MethodPost, t.url+"/v1/search", t.bodies[p.idx], reqID, &o)
	case opInsert:
		c.do(http.MethodPost, t.url+"/v1/insert", t.inserts[p.idx], reqID, &o)
		if o.ok() {
			var r struct {
				ID uint32 `json:"id"`
			}
			if json.Unmarshal(o.body, &r) == nil {
				t.mu.Lock()
				t.acked = append(t.acked, r.ID)
				t.mu.Unlock()
				o.delID = r.ID
			}
		}
	case opDelete:
		o.delID = uint32(p.idx)
		c.do(http.MethodDelete, t.url+"/v1/object/"+strconv.FormatUint(uint64(o.delID), 10), nil, reqID, &o)
	}
	return o
}

// takeDeletable removes and returns a random acked insert ID.
func (t *target) takeDeletable() (uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.acked) == 0 {
		return 0, false
	}
	i := t.delRng.IntN(len(t.acked))
	id := t.acked[i]
	t.acked[i] = t.acked[len(t.acked)-1]
	t.acked = t.acked[:len(t.acked)-1]
	return id, true
}

// send runs one operation on c: a delete targets an acked insert chosen
// now, or becomes a search when there is none; traced runs record its spans.
func (t *target) send(c *client, p op) outcome {
	if p.kind == opDelete {
		id, ok := t.takeDeletable()
		if !ok {
			p.kind, p.idx = opSearch, p.idx%len(t.bodies)
		} else {
			p.idx = int(id)
		}
	}
	var id uint64
	if t.rec.recording() {
		id = t.rec.newID()
	}
	o := t.exec(c, p, id)
	if t.rec.recording() {
		t.rec.add(span{ID: id, Name: "http." + o.kind.String(), Req: id, Shard: -1}, o.sent, o.done)
		t.rec.add(span{Parent: id, Name: "client.queue", Req: id, Shard: -1}, o.due, o.sent)
	}
	return o
}

// runPhase drives one phase of open-loop traffic over clients and returns
// its outcomes. seed fixes the arrival times and operation choices.
func (t *target) runPhase(clients []*client, spec phaseSpec, seed uint64) *phaseResult {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	// Sized so the generator never blocks, whatever the server does: the
	// expected arrivals plus a generous Poisson margin.
	expected := spec.rate * spec.dur.Seconds()
	queue := make(chan op, int(expected+10*math.Sqrt(expected)+64))
	res := &phaseResult{spec: spec}
	var (
		mu       sync.Mutex
		inflight int
		wg       sync.WaitGroup
	)
	cpu0 := t.serverCPU()
	res.start = time.Now().Add(2 * time.Millisecond)
	res.end = res.start.Add(spec.dur)
	drainBy := res.end.Add(drainLimit)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var local []outcome
			abandoned := 0
			for p := range queue {
				now := time.Now()
				if now.After(drainBy) {
					abandoned++
					mu.Lock()
					inflight--
					mu.Unlock()
					continue
				}
				local = append(local, t.send(c, p))
				mu.Lock()
				inflight--
				mu.Unlock()
			}
			mu.Lock()
			res.outcomes = append(res.outcomes, local...)
			res.abandoned += abandoned
			mu.Unlock()
		}(c)
	}

	next := res.start
	quarter := 1
	for seq := 0; ; seq++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / spec.rate * 1e9))
		if !next.Before(res.end) {
			break
		}
		for quarter < 4 && next.After(res.start.Add(spec.dur*time.Duration(quarter)/4)) {
			mu.Lock()
			res.backlog = append(res.backlog, inflight)
			mu.Unlock()
			quarter++
		}
		p := t.pick(rng, seq)
		p.due = next
		sleepUntil(next)
		res.lateMs = append(res.lateMs, float64(time.Since(next))/1e6)
		mu.Lock()
		inflight++
		mu.Unlock()
		queue <- p
	}
	sleepUntil(res.end)
	mu.Lock()
	res.backlog = append(res.backlog, inflight)
	mu.Unlock()
	close(queue)
	wg.Wait()
	res.serverCPU = t.serverCPU() - cpu0
	return res
}

// kindStats summarises one operation kind of a phase.
type kindStats struct {
	attempted, ok, failed int
	latMs                 []float64 // successful operations only
}

func (r *phaseResult) stats(k opKind) kindStats {
	var s kindStats
	for i := range r.outcomes {
		o := &r.outcomes[i]
		if o.kind != k {
			continue
		}
		s.attempted++
		if o.ok() {
			s.ok++
			s.latMs = append(s.latMs, o.latency())
		} else {
			s.failed++
		}
	}
	return s
}

// failed counts failed operations of every kind, abandoned ones included.
func (r *phaseResult) failed() int {
	n := r.abandoned
	for i := range r.outcomes {
		if !r.outcomes[i].ok() {
			n++
		}
	}
	return n
}

// backlogGrew reports a phase whose queue grew instead of holding steady:
// at the phase's end more operations were queued or in flight than the
// larger of 8 and 1% of those sent.
func (r *phaseResult) backlogGrew() bool {
	last := r.backlog[len(r.backlog)-1]
	return float64(last) > math.Max(8, 0.01*float64(len(r.outcomes)+r.abandoned))
}
