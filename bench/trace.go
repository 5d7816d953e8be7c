package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jsrevealer/internal/core"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/pathctx"
	"jsrevealer/internal/rules"
	"jsrevealer/internal/scan"
	"jsrevealer/internal/serve"
	"jsrevealer/internal/triage"
)

// spanProbes is how many empty spans are recorded to price one span.
const spanProbes = 100000

// span is one traced call. Spans of one request share Trace, the request's
// index in the open loop. The replayed layer calls run one after another
// right after their parent call, so a child "covers" its parent for its own
// duration rather than for an overlapping interval.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	OffPath bool   `json:"off_path,omitempty"`
}

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	t0    time.Time
	trace int
	spans []span
}

func (t *tracer) add(parent int, name string, start, end time.Time, offPath bool) int {
	t.spans = append(t.spans, span{
		Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), OffPath: offPath,
	})
	return len(t.spans)
}

// layerValue is one per-layer metric with its sample count.
type layerValue struct {
	value float64
	n     int
}

// replayer calls each layer's public function on one script in the order
// the engine does: deny-list text pass, triage, deobfuscation, full rules
// pass, then prepare (parse, extract) and classify, stopping where the
// engine stops. Layers the workload's server skips (rules without
// -rules-dir, deob without ?deobfuscate=1, triage without
// -triage-threshold) are still timed, on every replayed script and with the
// bench rule set, marked off-path and left out of the attribution, so every
// layer metric exists on every workload.
type replayer struct {
	w      *workload
	tr     *tracer
	eng    *scan.Engine
	ctx    context.Context
	set    *rules.Set
	det    *core.Detector
	scorer *triage.Scorer
	pipe   *deobfuscate.Pipeline
	lim    parser.Limits
	popts  pathctx.Options

	samples             map[string][]time.Duration
	counts              map[string]int
	engineSum, childSum time.Duration // over escalated scripts
}

func (r *replayer) timed(parent int, name string, offPath bool, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	r.samples[name] = append(r.samples[name], end.Sub(start))
	return r.tr.add(parent, name, start, end, offPath), end.Sub(start)
}

// phase records one phase a layer timed itself (lexing inside ParseTimed,
// say) as a child span starting at start.
func (r *replayer) phase(parent int, name string, start time.Time, d time.Duration) {
	r.samples[name] = append(r.samples[name], d)
	r.tr.add(parent, name, start, start.Add(d), false)
}

// script replays one script under the span parent (0 for none) and
// returns the engine's time for it.
func (r *replayer) script(parent int, name, src string) time.Duration {
	var res scan.Result
	root, total := r.timed(parent, "scan.ScanSource", false, func() { res = r.eng.ScanSource(r.ctx, name, src) })
	if !r.w.rules {
		tv, _ := r.evalText(root, src, true)
		rv, _ := r.evalRules(root, name, src, src, true)
		r.countRules(tv, rv)
	}
	if !r.w.deob {
		r.normalize(root, src, true)
	}
	if res.Tier == scan.TierCache {
		r.samples["scan.cache_hit"] = append(r.samples["scan.cache_hit"], total)
		return total
	}
	if res.Verdict == scan.VerdictBenign || res.Verdict == scan.VerdictMalicious {
		_, d := r.timed(0, "scan.ScanSource.cached", false, func() { r.eng.ScanSource(r.ctx, name, src) })
		r.samples["scan.cache_hit"] = append(r.samples["scan.cache_hit"], d)
	}
	var children time.Duration
	if res.Tier == scan.TierPipeline || res.Tier == scan.TierRules || res.Tier == scan.TierFallback {
		defer func() {
			r.samples["scan.engine"] = append(r.samples["scan.engine"], total)
			r.engineSum += total
			r.childSum += children
		}()
	}

	var tv, rv rules.Verdict
	if r.w.rules {
		defer func() { r.countRules(tv, rv) }()
		var d time.Duration
		tv, d = r.evalText(root, src, false)
		children += d
		if tv.Action == rules.ActionMalicious {
			return total
		}
	}

	var sc triage.Score
	_, d := r.timed(root, "triage.Score", !r.w.triage, func() { sc = r.scorer.Score(src) })
	r.counts["triage.scored"]++
	cfg := r.scorer.Config()
	cleared := len(src) >= cfg.MinBytes && sc.Suspicion < cfg.Threshold
	if cleared {
		r.counts["triage.cleared"]++
	}
	if r.w.triage {
		children += d
		if cleared {
			return total
		}
	}

	csrc := src
	if r.w.deob {
		csrc, d = r.normalize(root, src, false)
		children += d
	}
	if r.w.rules {
		rv, d = r.evalRules(root, name, src, csrc, false)
		children += d
		if rv.Action != rules.ActionNone {
			return total
		}
	}

	// PrepareBatch parses and extracts internally; the separate ParseTimed
	// and ExtractTimed calls split that work into its phases and are
	// recorded as its children, so only PrepareBatch counts toward the
	// engine's attribution.
	var prepared any
	var perr error
	prep, d := r.timed(root, "core.PrepareBatch", false, func() { prepared, perr = r.det.PrepareBatch(r.ctx, csrc, r.lim) })
	children += d
	start := time.Now()
	prog, ptm, err := parser.ParseTimed(csrc, r.lim)
	pid := r.tr.add(prep, "parser.ParseTimed", start, time.Now(), false)
	r.phase(pid, "lexer.lex", start, ptm.Lex)
	r.phase(pid, "parser.parse", start.Add(ptm.Lex), ptm.Parse)
	if err != nil || perr != nil {
		return total // the engine degrades to the lexical fallback here
	}
	start = time.Now()
	_, xtm := pathctx.ExtractTimed(prog, r.popts)
	xid := r.tr.add(prep, "pathctx.ExtractTimed", start, time.Now(), false)
	r.phase(xid, "dataflow.analyze", start, xtm.DataFlow)
	r.phase(xid, "pathctx.traverse", start.Add(xtm.DataFlow), xtm.Traversal)

	_, d = r.timed(root, "core.ClassifyBatch", false, func() { r.det.ClassifyBatch(r.ctx, []any{prepared}) })
	children += d
	return total
}

// evalText times the pre-triage deny pass.
func (r *replayer) evalText(root int, src string, offPath bool) (rules.Verdict, time.Duration) {
	var v rules.Verdict
	_, d := r.timed(root, "rules.EvalText", offPath, func() { v = r.set.EvalText(r.ctx, src) })
	return v, d
}

// evalRules times the full rules pass, parsing the normalized source first
// when a rule needs the AST, as the engine does.
func (r *replayer) evalRules(root int, name, src, csrc string, offPath bool) (rules.Verdict, time.Duration) {
	var v rules.Verdict
	_, d := r.timed(root, "rules.Eval", offPath, func() {
		in := rules.Input{Name: name, Raw: src, Normalized: csrc}
		if r.set.NeedsAST() {
			if prog, err := parser.ParseWithLimits(csrc, r.lim); err == nil {
				in.Prog = prog
			}
		}
		v = r.set.Eval(r.ctx, in)
	})
	return v, d
}

// countRules counts one script the rules evaluated, and whether any rule
// matched it.
func (r *replayer) countRules(tv, rv rules.Verdict) {
	r.counts["rules.evaluated"]++
	if len(tv.Hits)+len(rv.Hits) > 0 {
		r.counts["rules.hit"]++
	}
}

// normalize times the deobfuscation pipeline and returns what the
// classifier would see: the normalized source, or src when normalization
// fails, as the engine does.
func (r *replayer) normalize(root int, src string, offPath bool) (string, time.Duration) {
	var out string
	var rep *deobfuscate.Report
	var err error
	_, d := r.timed(root, "deob.Normalize", offPath, func() { out, rep, err = r.pipe.Normalize(r.ctx, src, r.lim) })
	r.counts["deob.runs"]++
	if err != nil {
		return src, d
	}
	if rep != nil && len(rep.Fired()) > 0 {
		r.counts["deob.fired"]++
	}
	return out, d
}

// traceWorkload replays ops, the first open-loop pass of w, in-process on
// one goroutine, writes the spans to
// bench-trace-<workload>.json in outDir, and returns the timed per-layer
// metrics.
func traceWorkload(w *workload, e *env, ops []op) (map[string]layerValue, error) {
	out := map[string]layerValue{}
	var loads []float64
	var det *core.Detector
	for i := 0; i < 3; i++ {
		start := time.Now()
		d, err := core.Load(e.model)
		if err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(start))/float64(time.Millisecond))
		det = d
	}
	out["core.load_ms"] = layerValue{median(loads), len(loads)}

	eng, ctx, set, err := engineFor(w, det, 0)
	if err != nil {
		return nil, err
	}
	twin, _, _, err := engineFor(w, det, 0) // mirrors the server's cache for /scan batches
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{ModelPath: e.model, Scan: scanConfig(w)}
	if w.rules {
		scfg.RulesDir = rulesDir
	}
	srv, err := serve.New(scfg, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	tr := &tracer{t0: time.Now()}
	r := &replayer{
		w: w, tr: tr, eng: eng, ctx: ctx, set: set, det: det,
		scorer:  triage.New(triage.Config{Threshold: triage.DefaultThreshold}),
		pipe:    deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true}),
		lim:     parser.Limits{MaxDepth: parser.DefaultMaxDepth, MaxTokens: scan.DefaultMaxTokens},
		popts:   det.Options().Path,
		samples: map[string][]time.Duration{},
		counts:  map[string]int{},
	}
	var overheads []time.Duration
	for i := range ops {
		o := &ops[i]
		tr.trace = i
		// The request goes to the in-process server first. The engine work it
		// contains is then repeated on separate engines, which also see the
		// input for the first time, as its child spans (ScanSource for
		// /detect, ScanSources for /scan), so the request's self time is the
		// serving overhead.
		start := time.Now()
		if err := serveOp(srv.Handler(), w, o); err != nil {
			return nil, fmt.Errorf("in-process %s: %w", w.endpoint, err)
		}
		req := tr.add(0, "serve.ServeHTTP", start, time.Now(), false)
		overhead := time.Since(start)
		if w.endpoint == "/scan" {
			srcs := make([]scan.Source, len(o.parts))
			for k, p := range o.parts {
				srcs[k] = scan.Source{Name: p.name(), Content: p.content()}
			}
			start := time.Now()
			twin.ScanSources(ctx, srcs, nil)
			tr.add(req, "scan.ScanSources", start, time.Now(), false)
			overhead -= time.Since(start)
		}
		parent := 0
		if w.endpoint == "/detect" {
			parent = req
		}
		for _, p := range o.parts {
			d := r.script(parent, p.name(), p.content())
			if w.endpoint == "/detect" {
				overhead -= d
			}
		}
		overheads = append(overheads, overhead)
	}

	p50 := func(name string) layerValue {
		us := micros(r.samples[name])
		return layerValue{percentile(us, 0.5), len(us)}
	}
	for metricName, spanName := range map[string]string{
		"scan.cache_hit_us":   "scan.cache_hit",
		"scan.engine_us":      "scan.engine",
		"triage.score_us":     "triage.Score",
		"rules.eval_text_us":  "rules.EvalText",
		"rules.eval_us":       "rules.Eval",
		"deob.normalize_us":   "deob.Normalize",
		"lexer.lex_us":        "lexer.lex",
		"parser.parse_us":     "parser.parse",
		"dataflow.analyze_us": "dataflow.analyze",
		"pathctx.traverse_us": "pathctx.traverse",
		"core.prepare_us":     "core.PrepareBatch",
		"core.classify_us":    "core.ClassifyBatch",
	} {
		if v := p50(spanName); v.n > 0 {
			out[metricName] = v
		}
	}
	if us := micros(r.samples["deob.Normalize"]); len(us) > 0 {
		out["deob.normalize_p99_us"] = layerValue{percentile(us, 0.99), len(us)}
	}
	if us := micros(overheads); len(us) > 0 {
		out["serve.overhead_us"] = layerValue{percentile(us, 0.5), len(us)}
	}
	if r.engineSum > 0 {
		out["scan.unattributed_share"] = layerValue{1 - float64(r.childSum)/float64(r.engineSum), len(r.samples["scan.engine"])}
	}
	c := r.counts
	out["triage.clear_ratio"] = layerValue{ratio(c["triage.cleared"], c["triage.scored"]), c["triage.scored"]}
	out["rules.hit_ratio"] = layerValue{ratio(c["rules.hit"], c["rules.evaluated"]), c["rules.evaluated"]}
	out["deob.fired_ratio"] = layerValue{ratio(c["deob.fired"], c["deob.runs"]), c["deob.runs"]}

	out["trace.span_ns"] = layerValue{spanCost(), spanProbes}

	printSelfTimes(w.name, tr.spans)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.name, tr.spans})
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(filepath.Join(outDir, "bench-trace-"+w.name+".json"), data, 0o644)
}

// serveOp sends one operation through the in-process server's handler.
func serveOp(h http.Handler, w *workload, o *op) error {
	var req *http.Request
	if w.endpoint == "/detect" {
		req = httptest.NewRequest("POST", detectPath(w, o.parts[0]), strings.NewReader(o.parts[0].content()))
	} else {
		body, _ := batchBody(o.parts)
		req = httptest.NewRequest("POST", w.endpoint, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

// spanCost is what recording one empty span costs, in nanoseconds.
func spanCost() float64 {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, spanProbes)}
	start := time.Now()
	for i := 0; i < spanProbes; i++ {
		a := time.Now()
		t.add(0, "empty", a, time.Now(), false)
	}
	return float64(time.Since(start).Nanoseconds()) / spanProbes
}

// printSelfTimes prints, per span name, the call count, busy time, self
// time (busy time minus what its child spans cover) and p50 per call.
func printSelfTimes(workload string, spans []span) {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		calls     int
		busy, own int64
		durs      []time.Duration
		offPath   bool
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.calls++
		a.busy += d
		a.own += max(d-child[s.ID], 0)
		a.durs = append(a.durs, time.Duration(d))
		a.offPath = a.offPath || s.OffPath
	}
	fmt.Printf("\n  trace %s: %d spans\n  %-24s %7s %11s %11s %10s\n", workload, len(spans), "span", "calls", "busy_ms", "self_ms", "p50_us")
	names := sortedKeys(by)
	sort.SliceStable(names, func(i, j int) bool { return by[names[i]].busy > by[names[j]].busy })
	for _, n := range names {
		a := by[n]
		note := ""
		if a.offPath {
			note = " (off the workload's path)"
		}
		fmt.Printf("  %-24s %7d %11.1f %11.1f %10.1f%s\n", n, a.calls, float64(a.busy)/1e6, float64(a.own)/1e6, percentile(micros(a.durs), 0.5), note)
	}
}
