package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The serving stack runs in a child process of the benchmark (perfbench
// --serve), so the Go scheduler of the server under test never runs the
// load generator: the client and the server share the machine's cores the
// way two processes do, and the heap and runtime figures it reports are the
// server's alone. README.md gives the measured cost of serving in-process
// instead. The child builds the stack, prints one ready line on stdout,
// serves until its stdin closes, and answers the traced run's control calls
// on a second loopback listener.

// readyLine is the child's report once it serves.
type readyLine struct {
	URL        string    `json:"url"`
	Control    string    `json:"control"`
	SetupS     []float64 `json:"setup_s"`
	HeapMB     float64   `json:"heap_mb"`
	IndexBytes int64     `json:"index_bytes"`
}

// layerReport is the child's answer to /trace/stop: its per-layer metrics
// plus the server-side request latency the client subtracts from its own.
type layerReport struct {
	Metrics      []wireMetric `json:"metrics"`
	ServerMeanUs float64      `json:"server_mean_us"`
}

type wireMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// serveMain is the child: build, serve, report, wait for stdin to close.
func (b *bench) serveMain() error {
	if err := b.generate(0, 0); err != nil {
		return err
	}
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		s, d, err := b.setUp()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st, setups = s, append(setups, d.Seconds())
	}
	defer st.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	ctl := &controller{b: b, st: st}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/trace/start", ctl.start)
	mux.HandleFunc("/trace/stop", ctl.stop)
	ctlSrv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- ctlSrv.Serve(ln) }()
	defer func() {
		ctlSrv.Close()
		<-served
	}()

	line, _ := json.Marshal(readyLine{ // plain fields always encode
		URL: st.url, Control: "http://" + ln.Addr().String(), SetupS: setups,
		HeapMB: float64(ms.HeapAlloc) / (1 << 20), IndexBytes: st.bytes,
	})
	fmt.Println(string(line))
	_, err = io.Copy(io.Discard, os.Stdin) // the client closes stdin when done
	return err
}

// controller answers the traced run's control calls.
type controller struct {
	b  *bench
	st *stack

	mu     sync.Mutex
	before *snap // guarded by mu
}

func (c *controller) start(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	url, before, err := c.b.startTracing(c.st)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.before = before
	writeJSONReply(w, map[string]string{"url": url})
}

func (c *controller) stop(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.b.stopTracing(c.st, c.before)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONReply(w, rep)
}

func writeJSONReply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // the client sees a short body as an error
}

// traceHandler decorates the server's HTTP handler in the traced run: each
// request becomes a server.http span carrying the client's request ID, and
// its query (or insert vector, or delete target) is registered so the
// engine decorators can tie their batch to it.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.recording() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		if id != 0 && r.Body != nil {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var req struct {
					Query  []float32 `json:"query"`
					Vector []float32 `json:"vector"`
				}
				if json.Unmarshal(body, &req) == nil {
					if len(req.Query) > 0 {
						rec.expect(rec.vecKey(req.Query), id)
					} else if len(req.Vector) > 0 {
						rec.expect(rec.vecKey(req.Vector), id)
					}
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/object/"); ok && id != 0 {
			if oid, err := strconv.ParseUint(rest, 10, 32); err == nil {
				rec.expect(deleteKey(uint32(oid)), id)
			}
		}
		next.ServeHTTP(w, r)
		rec.add(span{ID: id, Name: "server.http", Req: id, Shard: -1}, start, time.Now())
	})
}

// requestIDHeader carries the client's request ID in traced runs.
const requestIDHeader = "X-Bench-Request"

// child is the client's handle on the serving child process.
type child struct {
	stdin io.WriteCloser
	wait  chan error
	ready readyLine
	proc  *os.Process
}

// startChild launches perfbench --serve with the run's flags and waits for
// its ready line.
func startChild(b *bench) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	args := []string{exe, "--serve", "--workload", b.w.name, "--seed", strconv.FormatUint(b.seed, 10),
		"--trace", trace, "--workdir", b.dir}
	// The serving process runs at a lower scheduling priority than the
	// client, so a busy server does not delay the generator's wake-ups: the
	// client behaves as if it ran on other hardware, as real clients do.
	if nice, err := exec.LookPath("nice"); err == nil {
		args = append([]string{nice, "-n", strconv.Itoa(serverNice)}, args...)
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{stdin: stdin, wait: make(chan error, 1), proc: cmd.Process}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained until exit
		c.wait <- cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("serving process exited before it was ready")
		}
		if err := json.Unmarshal([]byte(line), &c.ready); err != nil {
			c.stop()
			return nil, fmt.Errorf("serving process ready line %q: %w", line, err)
		}
	case <-time.After(childReadyTimeout):
		c.stop()
		return nil, fmt.Errorf("serving process not ready after %v", childReadyTimeout)
	}
	return c, nil
}

// serverNice is the serving process's niceness relative to the client.
const serverNice = 10

// childReadyTimeout bounds the child's data generation and set-up.
const childReadyTimeout = 120 * time.Second

// stop closes the child's stdin, which shuts it down, and waits for it;
// a child that does not exit within 10 s is killed.
func (c *child) stop() error {
	c.stdin.Close()
	select {
	case err := <-c.wait:
		return err
	case <-time.After(10 * time.Second):
		c.proc.Kill()
		return <-c.wait
	}
}

// control posts to one of the child's control endpoints and decodes the
// reply into v.
func (c *child) control(path string, v any) error {
	resp, err := http.Post(c.ready.Control+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
