package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// 990 is the p99 of 1..1000 and exactly 10 samples lie beyond it.
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, 0.99) {
			beyond++
		}
	}
	if beyond != minTail {
		t.Errorf("%d samples beyond p99 of 1000, want %d", beyond, minTail)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {10000, 0.999, true}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func contents(ops []op) []string {
	var out []string
	for _, o := range ops {
		for _, p := range o.parts {
			out = append(out, p.name()+"\x00"+p.content())
		}
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, passLen := schedule(w, 7, 2*time.Second)
		b, _ := schedule(w, 7, 2*time.Second)
		c, _ := schedule(w, 8, 2*time.Second)
		if len(a) == 0 || len(a) != len(b) || len(a)%passLen != 0 {
			t.Fatalf("%s: %d and %d operations from the same seed, passes of %d", w.name, len(a), len(b), passLen)
		}
		// Every seed sends the same number of whole passes, enough for p99.
		if len(c) != len(a) || len(a) < minOpenOps || !supports(len(a), 0.99) {
			t.Errorf("%s: seeds 7 and 8 send %d and %d operations, want the same and at least %d", w.name, len(a), len(c), minOpenOps)
		}
		for i := range a {
			if a[i].due != b[i].due {
				t.Fatalf("%s: operation %d due at %v and %v with the same seed", w.name, i, a[i].due, b[i].due)
			}
			if i > 0 && a[i].due < a[i-1].due {
				t.Fatalf("%s: schedule not sorted at %d", w.name, i)
			}
		}
		if !reflect.DeepEqual(contents(a), contents(b)) {
			t.Errorf("%s: the same seed gave different request contents", w.name)
		}
		if c[0].due == a[0].due || reflect.DeepEqual(contents(a), contents(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same arrivals or contents", w.name)
		}
		// Poisson arrivals at the workload's rate: n arrivals take n/rate
		// seconds on average, with a standard deviation of sqrt(n)/rate.
		n := float64(len(a))
		if d := math.Abs(a[len(a)-1].due.Seconds()*w.rate - n); d > 5*math.Sqrt(n) {
			t.Errorf("%s: %d arrivals took %v at %v/s", w.name, len(a), a[len(a)-1].due, w.rate)
		}
	}
}

// TestPassesCarryTheSameWork checks what keeps runs comparable: whatever
// the seed, a pass sends every pool script once.
func TestPassesCarryTheSameWork(t *testing.T) {
	pools := map[string]int{
		"detect-obfuscated": len(obfPool()),
		"scan-crawl":        len(crawlPool()),
	}
	for _, w := range workloads {
		type work struct {
			items map[*item]int
			parts int
		}
		measure := func(seed int64) work {
			x := work{items: map[*item]int{}}
			for _, o := range newStream(w, seed, phaseOpen).next() {
				for _, p := range o.parts {
					x.parts++
					if p.trailer >= 0 {
						x.items[p.it]++
					}
				}
			}
			return x
		}
		a, b := measure(1), measure(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give passes of different work: %d and %d parts", w.name, a.parts, b.parts)
		}
		if len(a.items) != pools[w.name] {
			t.Errorf("%s: a pass sends %d distinct pool scripts, want %d", w.name, len(a.items), pools[w.name])
		}
		for _, n := range a.items {
			if n != 1 {
				t.Errorf("%s: a pass sends a script %d times", w.name, n)
				break
			}
		}
	}
}

func TestTrailersMakeContentUnique(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]bool{}
		names := map[string]bool{}
		s := newStream(w, 3, phaseOpen)
		for pass := 0; pass < 2; pass++ {
			for _, o := range s.next() {
				batch := map[string]bool{}
				for _, p := range o.parts {
					if batch[p.name()] {
						t.Fatalf("%s: name %q twice in one request", w.name, p.name())
					}
					batch[p.name()] = true
					if p.trailer < 0 {
						continue // hot-set scripts repeat on purpose
					}
					if seen[p.content()] || names[p.name()] {
						t.Fatalf("%s: trailered script %q repeats", w.name, p.name())
					}
					seen[p.content()], names[p.name()] = true, true
				}
			}
		}
		// Another phase of the same run never reuses a trailer.
		for _, o := range newStream(w, 3, phaseClosed).next() {
			for _, p := range o.parts {
				if p.trailer >= 0 && names[p.name()] {
					t.Fatalf("%s: closed phase reuses trailer %q", w.name, p.name())
				}
			}
		}
	}
}

func TestCheckLines(t *testing.T) {
	names := []string{"a.js", "b.js"}
	line := func(name, v string) string {
		return `{"name":"` + name + `","verdict":"` + v + `","malicious":false,"tier":"triage"}` + "\n"
	}
	good := line("b.js", "benign") + line("a.js", "MALICIOUS")
	vs, err := checkLines([]byte(good), names)
	if err != nil || vs[0].Verdict != "MALICIOUS" || vs[1].Verdict != "benign" {
		t.Fatalf("good batch: %v %v", vs, err)
	}
	for what, body := range map[string]string{
		"missing":   line("a.js", "benign"),
		"duplicate": line("a.js", "benign") + line("a.js", "benign") + line("b.js", "benign"),
		"extra":     good + line("c.js", "benign"),
		"malformed": line("a.js", "benign") + `{"name":"b.js",` + "\n",
		"empty":     line("a.js", "benign") + "\n" + line("b.js", "benign"),
		"failed":    line("a.js", "benign") + line("b.js", "FAILED"),
		"verdict":   line("a.js", "benign") + line("b.js", "maybe"),
		"no tier":   line("a.js", "benign") + `{"name":"b.js","verdict":"benign"}` + "\n",
	} {
		if _, err := checkLines([]byte(body), names); err == nil {
			t.Errorf("%s line accepted", what)
		}
	}
}

// stubServer answers /detect and /scan the way jsrevealer serve does.
func stubServer(t *testing.T) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"path": r.URL.Query().Get("name"), "verdict": "benign", "tier": "triage"})
	})
	mux.HandleFunc("POST /scan", func(w http.ResponseWriter, r *http.Request) {
		dec, enc := json.NewDecoder(r.Body), json.NewEncoder(w)
		for {
			var rec struct{ Name string }
			if dec.Decode(&rec) != nil {
				return
			}
			enc.Encode(verdict{Name: rec.Name, Verdict: "benign", Tier: "cache"})
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestLoopsAgainstStub drives both loops, with two connections, through
// both endpoints.
func TestLoopsAgainstStub(t *testing.T) {
	srv := stubServer(t)
	it := &item{src: "var a = 1;"}
	for _, endpoint := range []string{"/detect", "/scan"} {
		w := &workload{name: "stub" + endpoint, endpoint: endpoint, rate: 5000,
			pass: func(s *stream) []op {
				ops := make([]op, 50)
				for i := range ops {
					ops[i].parts = []part{s.unique(it)}
					if endpoint == "/scan" {
						ops[i].parts = append(ops[i].parts, s.unique(it), part{it: &item{src: "lib", name: "lib.js"}, trailer: -1})
					}
				}
				return ops
			}}
		clients := []*client{newClient(srv.URL, w), newClient(srv.URL, w)}
		ops, _ := schedule(w, 1, 100*time.Millisecond)
		res, wakes := runOpen(clients, ops, 0)
		if len(wakes) == 0 {
			t.Errorf("%s: no host wake-up samples", endpoint)
		}
		for i, r := range res {
			if r.err != nil || len(r.verdicts) != len(ops[i].parts) || r.latency <= 0 {
				t.Fatalf("%s: open-loop operation %d: err=%v verdicts=%d latency=%v", endpoint, i, r.err, len(r.verdicts), r.latency)
			}
		}
		cops := newStream(w, 1, phaseClosed).next()
		cres, d := runClosed(clients, cops)
		if d <= 0 || answered(cops, cres) != len(cops)*len(cops[0].parts) {
			t.Fatalf("%s: closed loop answered %d scripts of %d in %v", endpoint, answered(cops, cres), len(cops)*len(cops[0].parts), d)
		}
		for _, c := range clients {
			c.close()
		}
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json and the metrics and workloads this
// program reports in step.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if !strings.Contains(w.why, strconv.FormatFloat(w.rate, 'f', -1, 64)+"/s") &&
			!strings.Contains(w.why, strconv.FormatFloat(w.rate, 'f', -1, 64)+" pages/s") {
			t.Errorf("%s: why does not state the frozen rate %v/s", w.name, w.rate)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
