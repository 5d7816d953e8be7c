package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Run shape and validity limit.
const (
	rounds       = 10 // open-loop segments, each followed by one closed-loop pass
	warmPasses   = 1  // closed-loop passes before anything is measured
	startsEach   = 1  // start-ups timed before each round, for setup_s
	maxGenLagP99 = 2 * time.Millisecond
)

// phaseCount is one phase's operation tally.
type phaseCount struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// inputProps describes the open-loop inputs, so a claim about a cache,
// triage or deob change can cite the share of traffic it applies to.
type inputProps struct {
	Scripts      int     `json:"scripts"`
	Repeats      float64 `json:"repeat_share"`
	TriageClears float64 `json:"triage_clear_share"`
	Obfuscated   float64 `json:"obfuscated_share"`
	BytesP50     float64 `json:"bytes_p50"`
	BytesP99     float64 `json:"bytes_p99"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Meta      map[string]any `json:"meta"`
	Phases    []phaseCount   `json:"phases"`
	GenLagP99 float64        `json:"gen_lag_p99_ms"`
	// HostLagP99 is how late the host woke a sleeping thread at p99 over
	// the same open-loop segments: the part of GenLagP99 that is not the
	// generator's own.
	HostLagP99 float64 `json:"host_wake_lag_p99_ms"`
	// RoundP50 is each open-loop segment's median latency, which shows how
	// far the host's bursts moved one segment against the others.
	RoundP50 []float64 `json:"round_latency_p50_ms"`
	// ClosedRates is each closed-loop pass's throughput in scripts/s.
	ClosedRates []float64  `json:"closed_rates_sps"`
	Inputs      inputProps `json:"inputs"`
	Metrics     []metric   `json:"metrics"`
	Layers      []metric   `json:"layers,omitempty"`
	Problems    []string   `json:"problems,omitempty"`
	Warnings    []string   `json:"warnings,omitempty"`
	WallS       float64    `json:"wall_s"`
}

func addMetric(list *[]metric, defs []metricDef, name string, v float64, n int) {
	*list = append(*list, metric{Name: name, Unit: unitOf(defs, name), Value: v, Samples: n})
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// reported is what the closing JSON line carries: end-to-end metrics, or
// per-layer ones for a traced run.
func (r *report) reported() []metric {
	if r.Traced {
		return r.Layers
	}
	return r.Metrics
}

// runWorkload runs one workload end to end and, when cfg.trace is set, the
// traced in-process replay of its inputs.
func runWorkload(e *env, w *workload, cfg config, seed int64) (*report, error) {
	began := time.Now()
	r := &report{Workload: w.name, Seed: seed, Seconds: cfg.seconds, Traced: cfg.trace, Meta: e.meta}
	openOps, passLen := schedule(w, seed, cfg.open())
	warm, closed := newStream(w, seed, phaseWarm), newStream(w, seed, phaseClosed)

	srv, d, err := startServer(w, e.model, e.scratch)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setups := []float64{d.Seconds()}
	// The other start-ups are timed between rounds, while the measured server
	// idles, so that one burst of host noise cannot cover them all.
	timeSetups := func(n int) error {
		for i := 0; i < n; i++ {
			s, d, err := startServer(w, e.model, e.scratch)
			if err != nil {
				return err
			}
			s.stop()
			setups = append(setups, d.Seconds())
		}
		return nil
	}

	conns := min(2, runtime.NumCPU())
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient(srv.base, w)
		defer clients[i].close()
	}
	var warmOps []op
	var warmRes []result
	for i := 0; i < warmPasses; i++ {
		ops := warm.next()
		res, _ := runClosed(clients, ops)
		warmOps, warmRes = append(warmOps, ops...), append(warmRes, res...)
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss := srv.sampleRSS()
	defer rss()
	// The measured time alternates open segments and closed passes: the
	// shared host slows the program by a fifth for seconds at a time, and
	// interleaving spreads each such burst over both phases instead of
	// letting it cover one.
	openRes := make([]result, len(openOps))
	var closedOps []op
	var closedRes []result
	var closedRates []float64
	var hostLags []time.Duration
	seg := openOps[len(openOps)-1].due/rounds + 1
	lo := 0
	// The load generator's own garbage collection would compete with the
	// server for the CPUs in the middle of a segment, so it runs only between
	// segments.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	for k := 0; k < rounds; k++ {
		runtime.GC()
		if err := timeSetups(startsEach); err != nil {
			return nil, err
		}
		hi := lo
		for hi < len(openOps) && openOps[hi].due < seg*time.Duration(k+1) {
			hi++
		}
		res, wakes := runOpen(clients, openOps[lo:hi], seg*time.Duration(k))
		copy(openRes[lo:hi], res)
		r.RoundP50 = append(r.RoundP50, percentile(millis(latencies(res)), 0.5))
		hostLags = append(hostLags, wakes...)
		lo = hi
		ops := closed.next()
		res, d := runClosed(clients, ops)
		closedRates = append(closedRates, float64(answered(ops, res))/d.Seconds())
		closedOps, closedRes = append(closedOps, ops...), append(closedRes, res...)
	}
	debug.SetGCPercent(gcPercent)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rssMB, rssN, err := rss()
	if err != nil {
		return nil, err
	}
	if err := timeSetups(1); err != nil {
		return nil, err
	}

	r.Phases = []phaseCount{tally(phaseNames[phaseWarm], warmRes, r), tally(phaseNames[phaseOpen], openRes, r), tally(phaseNames[phaseClosed], closedRes, r)}
	lats := latencies(openRes)
	var lags []time.Duration
	for _, res := range openRes {
		lags = append(lags, res.lag)
	}
	r.GenLagP99 = percentile(millis(lags), 0.99)
	r.HostLagP99 = percentile(millis(hostLags), 0.99)
	// A stall of the host delays the sender as well as the probe, and the
	// two sample it at different moments, so the generator counts as the
	// culprit only when its excess is both over the limit and larger than the
	// host's own lag. Even then the run stands, with a warning: on a shared
	// host a burst of neighbour load can do this to a sound generator, and a
	// benchmark that fails on its host's bad minutes cannot be run in series.
	if own := r.GenLagP99 - r.HostLagP99; own > float64(maxGenLagP99)/float64(time.Millisecond) && own > r.HostLagP99 {
		r.Warnings = append(r.Warnings, fmt.Sprintf("generator lag p99 %.3f ms exceeds the host's own wake-up lag p99 %.3f ms by more than %s and by more than the host's lag: the load generator may have set the pace",
			r.GenLagP99, r.HostLagP99, maxGenLagP99))
	}
	latMS := millis(lats)
	if !supports(len(latMS), 0.99) {
		r.problem("%d open-loop latencies leave fewer than %d beyond p99; raise -seconds", len(latMS), minTail)
	}
	acc := accuracy(openOps, openRes)
	m := &r.Metrics
	addMetric(m, endToEnd, "latency_p50_ms", percentile(latMS, 0.50), len(latMS))
	addMetric(m, endToEnd, "latency_p99_ms", percentile(latMS, 0.99), len(latMS))
	r.ClosedRates = closedRates
	addMetric(m, endToEnd, "throughput_sps", median(closedRates), answered(closedOps, closedRes))
	addMetric(m, endToEnd, "setup_s", median(setups), len(setups))
	addMetric(m, endToEnd, "rss_mb", rssMB, rssN)
	addMetric(m, endToEnd, "detection_rate", ratio(acc.flaggedMal, acc.malicious), acc.malicious)
	addMetric(m, endToEnd, "false_positive_rate", ratio(acc.flaggedBen, acc.benign), acc.benign)
	addMetric(m, endToEnd, "clean_ratio", ratio(acc.clean, acc.scripts), acc.scripts)
	if acc.malicious == 0 || acc.benign == 0 {
		r.problem("the open loop sent %d malicious and %d benign labelled scripts; both rates need some of each", acc.malicious, acc.benign)
	}
	r.Inputs = describe(warmOps, openOps, openRes, acc)

	if err := gate(w, e.model, openOps, openRes); err != nil {
		r.problem("correctness gate: %v", err)
	}
	if cfg.trace {
		l := &r.Layers
		wait := family(after, "jsrevealer_serve_queue_wait_seconds_sum") - family(before, "jsrevealer_serve_queue_wait_seconds_sum")
		waits := family(after, "jsrevealer_serve_queue_wait_seconds_count") - family(before, "jsrevealer_serve_queue_wait_seconds_count")
		addMetric(l, perLayer, "serve.admission_wait_ms", 1000*wait/max(waits, 1), int(waits))
		addMetric(l, perLayer, "serve.rejects", family(after, "jsrevealer_serve_admission_rejects_total"), 0)
		for _, tier := range []string{"triage", "cache", "pipeline", "rules", "fallback"} {
			addMetric(l, perLayer, "scan.tier_share."+tier, ratio(acc.tiers[tier], acc.scripts), acc.scripts)
		}
		layers, err := traceWorkload(w, e, openOps[:passLen])
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for _, d := range perLayer {
			if v, ok := layers[d.name]; ok {
				addMetric(l, perLayer, d.name, v.value, v.n)
			}
		}
		if len(r.Layers) != len(perLayer) {
			r.problem("traced run reported %d of %d per-layer metrics", len(r.Layers), len(perLayer))
		}
	}
	r.WallS = time.Since(began).Seconds()
	return r, nil
}

// latencies returns the latencies of the operations that succeeded.
func latencies(res []result) []time.Duration {
	var out []time.Duration
	for _, x := range res {
		if x.err == nil {
			out = append(out, x.latency)
		}
	}
	return out
}

// answered counts the scripts of ops that got a verdict.
func answered(ops []op, res []result) int {
	n := 0
	for i, x := range res {
		if x.err == nil {
			n += len(ops[i].parts)
		}
	}
	return n
}

func millis(ds []time.Duration) []float64 {
	out := micros(ds)
	for i := range out {
		out[i] /= 1000
	}
	return out
}

// tally counts one phase and records its first few failures as problems.
func tally(name string, res []result, r *report) phaseCount {
	c := phaseCount{Name: name}
	for _, x := range res {
		c.Sent++
		if x.err != nil {
			c.Failed++
			if c.Failed <= 3 {
				r.problem("%s phase: %v", name, x.err)
			}
		} else {
			c.OK++
		}
	}
	if c.Failed > 3 {
		r.problem("%s phase: %d failed operations in all", name, c.Failed)
	}
	return c
}

// accounting tallies the open loop's verdicts. Accuracy counts each pool
// script once, at its first answer, so the rates describe the fixed pools
// and not the seed's sampling of them.
type accounting struct {
	scripts, clean         int
	malicious, benign      int
	flaggedMal, flaggedBen int
	tiers                  map[string]int
}

func accuracy(ops []op, res []result) accounting {
	a := accounting{tiers: map[string]int{}}
	seen := map[*item]bool{}
	for i, o := range ops {
		if res[i].err != nil {
			continue
		}
		for k, p := range o.parts {
			v := res[i].verdicts[k]
			a.scripts++
			a.tiers[v.Tier]++
			if v.Verdict == "benign" || v.Verdict == "MALICIOUS" {
				a.clean++
			}
			if seen[p.it] {
				continue
			}
			seen[p.it] = true
			if p.it.malicious {
				a.malicious++
				if v.Malicious {
					a.flaggedMal++
				}
			} else {
				a.benign++
				if v.Malicious {
					a.flaggedBen++
				}
			}
		}
	}
	return a
}

// describe measures the open-loop input properties. A script is a repeat
// when byte-identical content was already sent in this run.
func describe(warm, open []op, res []result, acc accounting) inputProps {
	seen := map[uint64]bool{}
	hash := func(s string) uint64 {
		h := fnv.New64a()
		io.WriteString(h, s)
		return h.Sum64()
	}
	for _, o := range warm {
		for _, p := range o.parts {
			seen[hash(p.content())] = true
		}
	}
	var n, repeats, obf int
	var sizes []float64
	for _, o := range open {
		for _, p := range o.parts {
			c := p.content()
			h := hash(c)
			n++
			if seen[h] {
				repeats++
			}
			seen[h] = true
			if p.it.obfuscated {
				obf++
			}
			sizes = append(sizes, float64(len(c)))
		}
	}
	sort.Float64s(sizes)
	return inputProps{
		Scripts:      n,
		Repeats:      ratio(repeats, n),
		TriageClears: ratio(acc.tiers["triage"], acc.scripts),
		Obfuscated:   ratio(obf, n),
		BytesP50:     percentile(sizes, 0.50),
		BytesP99:     percentile(sizes, 0.99),
	}
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (seed %d, %.0f s measured, %.1f s wall) ==\n", r.Workload, r.Seed, r.Seconds, r.WallS)
	for _, k := range sortedKeys(r.Meta) {
		fmt.Fprintf(out, "  %s: %v\n", k, r.Meta[k])
	}
	fmt.Fprintf(out, "  %-8s %8s %8s %8s\n", "phase", "sent", "ok", "failed")
	for _, p := range r.Phases {
		fmt.Fprintf(out, "  %-8s %8d %8d %8d\n", p.Name, p.Sent, p.OK, p.Failed)
	}
	fmt.Fprintf(out, "  gen_lag_p99_ms: %.4f (host wake-up lag p99 %.4f)\n", r.GenLagP99, r.HostLagP99)
	fmt.Fprintf(out, "  open-loop latency p50 per segment (ms): %.4g\n", r.RoundP50)
	fmt.Fprintf(out, "  closed-loop throughput per pass (scripts/s): %.4g\n", r.ClosedRates)
	in := r.Inputs
	fmt.Fprintf(out, "  inputs: %d scripts; repeats %.1f%%, triage clears %.1f%%, obfuscated %.1f%%; bytes p50 %.0f p99 %.0f\n",
		in.Scripts, 100*in.Repeats, 100*in.TriageClears, 100*in.Obfuscated, in.BytesP50, in.BytesP99)
	section := func(title string, ms []metric, defs []metricDef) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(out, "  %s:\n", title)
		for _, m := range ms {
			moves := ""
			for _, d := range defs {
				if d.name == m.Name && d.moves != "" {
					moves = "  -> " + d.moves
				}
			}
			fmt.Fprintf(out, "    %-26s %14.6g %-9s n=%-7d%s\n", m.Name, m.Value, m.Unit, m.Samples, moves)
		}
	}
	section("end-to-end", r.Metrics, endToEnd)
	section("per-layer", r.Layers, perLayer)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  INVALID: %s\n", p)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(out, "  WARNING: %s\n", w)
	}
}

// save writes the report as JSON into outDir.
func (r *report) save() error {
	suffix := ""
	if r.Traced {
		suffix = "-trace"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d%s.json", r.Workload, r.Seed, suffix)), append(data, '\n'), 0o644)
}
