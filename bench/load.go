package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// verdict is the part of a served verdict the benchmark checks and counts:
// a /detect response or a /scan NDJSON line.
type verdict struct {
	Name      string `json:"name"`
	Path      string `json:"path"`
	Verdict   string `json:"verdict"`
	Malicious bool   `json:"malicious"`
	Tier      string `json:"tier"`
}

func (v verdict) check() error {
	switch v.Verdict {
	case "benign", "MALICIOUS", "DEGRADED":
	case "FAILED":
		return errors.New("FAILED verdict")
	default:
		return fmt.Errorf("malformed verdict %q", v.Verdict)
	}
	if v.Tier == "" {
		return errors.New("verdict without a tier")
	}
	return nil
}

// checkDetect validates one /detect response.
func checkDetect(body []byte, name string) (verdict, error) {
	var v verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("malformed body: %v", err)
	}
	if v.Path != name {
		return v, fmt.Errorf("answer for %q, want %q", v.Path, name)
	}
	return v, v.check()
}

// checkLines validates NDJSON verdict lines against the names submitted:
// exactly one well-formed line per name, none unknown or repeated. It
// returns the verdicts in the order of names.
func checkLines(body []byte, names []string) ([]verdict, error) {
	want := make(map[string]int, len(names))
	for i, n := range names {
		want[n] = i
	}
	out := make([]verdict, len(names))
	seen := make([]bool, len(names))
	for i, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		if len(line) == 0 {
			return nil, fmt.Errorf("line %d: empty", i)
		}
		var v verdict
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("line %d: malformed: %v", i, err)
		}
		k, ok := want[v.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("line %d: extra result %q", i, v.Name)
		case seen[k]:
			return nil, fmt.Errorf("line %d: duplicate result %q", i, v.Name)
		}
		if err := v.check(); err != nil {
			return nil, fmt.Errorf("line %d: %s: %w", i, v.Name, err)
		}
		seen[k], out[k] = true, v
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("missing result %q", names[i])
		}
	}
	return out, nil
}

// requestTimeout bounds one request; the slowest, a large obfuscated script
// or a page of unique scripts, takes well under a second.
const requestTimeout = 30 * time.Second

// result is the outcome of one operation.
type result struct {
	err      error         // transport, status or body failure
	latency  time.Duration // from the due time (open loop) or send time (closed loop)
	lag      time.Duration // how late the generator sent it, open loop only
	verdicts []verdict     // one per part
}

// client is one load connection: an HTTP client limited to a single
// keep-alive connection to the server.
type client struct {
	base string
	w    *workload
	hc   *http.Client
}

func newClient(base string, w *workload) *client {
	return &client{base: base, w: w, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// detectPath is the /detect request line for one script of w.
func detectPath(w *workload, p part) string {
	q := url.Values{"name": {p.name()}}
	if w.deob {
		q.Set("deobfuscate", "1")
	}
	return "/detect?" + q.Encode()
}

// batchBody encodes parts as NDJSON {"name","source"} records.
func batchBody(parts []part) ([]byte, []string) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = p.name()
		enc.Encode(struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		}{names[i], p.content()})
	}
	return buf.Bytes(), names
}

// submit sends one operation and checks the verdicts that come back.
func (c *client) submit(o *op) ([]verdict, error) {
	if c.w.endpoint == "/detect" {
		p := o.parts[0]
		status, body, err := c.post(detectPath(c.w, p), []byte(p.content()))
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("/detect: status %d: %.200s", status, body)
		}
		v, err := checkDetect(body, p.name())
		return []verdict{v}, err
	}
	body, names := batchBody(o.parts)
	status, resp, err := c.post("/scan", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/scan: status %d: %.200s", status, resp)
	}
	return checkLines(resp, names)
}

// sleepUntil waits for t. It calls nanosleep directly: the runtime timer
// wakes up to a millisecond late, which would dominate sub-millisecond
// latencies measured from the due time.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// dispatcher hands out the indexes of a list of operations, in order, to
// the connections.
type dispatcher struct {
	mu   sync.Mutex
	next int
	n    int
}

func (d *dispatcher) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next == d.n {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// each runs f for every index of a list of n operations, each connection
// taking the next index as soon as it is free, and returns when all are done.
func each(clients []*client, n int, f func(c *client, i int)) {
	d := &dispatcher{n: n}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i, ok := d.take(); ok; i, ok = d.take() {
				f(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// runOpen drives ops on their Poisson schedule over the clients, due times
// counted from base, and returns their results with the host's wake-up lags
// over the same time. Latency is measured from each operation's due time,
// so a stall also charges the requests queued behind it.
func runOpen(clients []*client, ops []op, base time.Duration) ([]result, []time.Duration) {
	res := make([]result, len(ops))
	stopProbe := make(chan struct{})
	probe := make(chan []time.Duration)
	go func() { probe <- wakeProbe(stopProbe) }()
	start := time.Now().Add(-base)
	each(clients, len(ops), func(c *client, i int) {
		free := time.Now()
		due := start.Add(ops[i].due)
		sleepUntil(due)
		sent := time.Now()
		if due.After(free) {
			free = due
		}
		vs, err := c.submit(&ops[i])
		res[i] = result{err: err, latency: time.Since(due), lag: sent.Sub(free), verdicts: vs}
	})
	close(stopProbe)
	return res, <-probe
}

// wakeProbe sleeps 1 ms at a time on its own thread until stop closes and
// returns how late each wake-up came: the host's share of the generator's
// lag, which on a shared host can reach milliseconds.
func wakeProbe(stop <-chan struct{}) []time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lags []time.Duration
	for {
		select {
		case <-stop:
			return lags
		default:
		}
		due := time.Now().Add(time.Millisecond)
		sleepUntil(due)
		lags = append(lags, time.Since(due))
	}
}

// runClosed sends ops back to back over the clients, each connection
// sending its next operation as soon as the previous one is answered, and
// returns their results and the time the whole list took.
func runClosed(clients []*client, ops []op) ([]result, time.Duration) {
	res := make([]result, len(ops))
	start := time.Now()
	each(clients, len(ops), func(c *client, i int) {
		sent := time.Now()
		vs, err := c.submit(&ops[i])
		res[i] = result{err: err, latency: time.Since(sent), verdicts: vs}
	})
	return res, time.Since(start)
}
