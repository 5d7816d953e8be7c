// The scan driver. Every entry point (ScanDir, ScanFiles, ScanSources,
// ScanSource) is one call of Engine.run over n items. Phase 1 fans the
// per-script work out over the worker pool — load, guards, cache, triage,
// deobfuscation, rules, and the classifier's PrepareBatch, each under its
// own deadline and panic isolation — and emits anything that finishes there
// (guard failure, cache hit, triage clear, rules verdict) immediately.
// Phase 2 then classifies every surviving script in ONE ClassifyBatch call,
// which lets the model compute each distinct path of the batch once (see
// core.Detector.ClassifyBatch) instead of once per script and occurrence.
// A classifier without a batched back half runs through detectAdapter and
// has its verdict decided in phase 1.
package scan

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
)

// BatchClassifier is optionally implemented by classifiers that split
// detection into a per-script prepare and a batched classify
// (core.Detector does). PrepareBatch runs the per-script front of the
// pipeline under the engine's parser limits and returns opaque state;
// ClassifyBatch consumes a slice of such states and returns one verdict per
// element, in order. Both must be safe for concurrent use; the engine wraps
// each in panic isolation and a deadline.
type BatchClassifier interface {
	PrepareBatch(ctx context.Context, src string, lim parser.Limits) (any, error)
	ClassifyBatch(ctx context.Context, prepared []any) ([]bool, error)
}

// detectAdapter runs a plain Classifier through the driver: PrepareBatch
// runs the whole detection, so the verdict is still decided in phase 1 — in
// parallel, under prepare's per-file deadline and panic isolation — and
// ClassifyBatch only hands the stored verdicts back.
type detectAdapter struct{ c Classifier }

func (a detectAdapter) PrepareBatch(ctx context.Context, src string, _ parser.Limits) (any, error) {
	malicious, err := a.c.DetectCtx(ctx, src)
	return malicious, err
}

func (detectAdapter) ClassifyBatch(_ context.Context, prepared []any) ([]bool, error) {
	out := make([]bool, len(prepared))
	for i, p := range prepared {
		out[i] = p.(bool)
	}
	return out, nil
}

// loader yields one item's content for the driver, or — when finished — its
// final result, for an item that never reaches the pipeline (a file that
// cannot be read, or one over MaxBytes).
type loader func(ctx context.Context, it Source) (res Result, prov provenance, src string, finished bool)

// pendingScan is one script that passed the guards, the cache, and triage
// in phase 1 and now awaits the batched back half.
type pendingScan struct {
	idx      int             // slot in the results slice
	src      string          // script content (degrade needs it on batch failure)
	key      cacheKey        // verdict-cache key, zero when caching and auditing are off
	prepared any             // classifier state from PrepareBatch
	res      Result          // partial result (Path/Bytes set)
	prov     provenance      // audit provenance so far
	sctx     context.Context // per-file context: stage timings + trace
	prepDur  time.Duration   // phase-1 wall time (load, guards, prepare)
	follower bool            // identical content is pipeline-bound under another slot
}

// batchDedup collapses byte-identical content within one run. The first
// script to claim a cache key becomes the leader and goes to the pipeline;
// later claimants become followers, skip prepare entirely, and are
// finalized after the batch from the cache entry the leader wrote — a
// directory of duplicated bundles costs one pipeline run, not N.
type batchDedup struct {
	mu   sync.Mutex
	seen map[cacheKey]struct{}
}

func newBatchDedup() *batchDedup {
	return &batchDedup{seen: make(map[cacheKey]struct{})}
}

// claim reports whether the caller is the first in this run to scan
// content with this key (the leader).
func (d *batchDedup) claim(key cacheKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen[key]; ok {
		return false
	}
	d.seen[key] = struct{}{}
	return true
}

// scanRun is one call of the driver: the items, their results, and the
// state the phase-1 workers share.
type scanRun struct {
	e       *Engine
	ctx     context.Context
	ins     *instruments
	items   []Source
	load    loader
	emit    func(Result) // nil: no streaming
	start   time.Time
	dedup   *batchDedup  // nil for a run of one
	next    atomic.Int64 // next unclaimed item
	results []Result
	done    []bool
	pending []*pendingScan // phase-1 survivors, by item
}

// run is the engine's one scan driver: phase 1 over the worker pool, phase
// 2 as one batched classification, then a result for every item a
// cancellation skipped. It returns one Result per item, in input order, and
// emits each (when emit is non-nil) as it is finalized.
func (e *Engine) run(ctx context.Context, items []Source, load loader, emit func(Result)) ([]Result, Stats) {
	r := &scanRun{
		e: e, ctx: ctx, ins: newInstruments(obs.FromContext(ctx)),
		items: items, load: load, emit: emit, start: time.Now(),
		results: make([]Result, len(items)),
		done:    make([]bool, len(items)),
		pending: make([]*pendingScan, len(items)),
	}
	if len(items) > 1 {
		r.dedup = newBatchDedup()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(e.cfg.Workers, len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work() // the calling goroutine is the last worker
	wg.Wait()
	r.finishPending()
	// Items skipped by an engine-wide cancellation still get a result.
	for i, ok := range r.done {
		if !ok {
			res := Result{
				Path:    items[i].Name,
				Verdict: VerdictFailed,
				Tier:    TierNone,
				Err:     fmt.Errorf("%w: scan cancelled: %v", ErrTimeout, ctx.Err()),
			}
			r.ins.observe(res)
			r.results[i] = res
			if emit != nil {
				emit(res)
			}
		}
	}
	return r.results, summarize(r.results, time.Since(r.start))
}

// work is one phase-1 worker: it claims items until none are left or the
// run is cancelled.
func (r *scanRun) work() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.items) || r.ctx.Err() != nil {
			return
		}
		// Queue wait: how long the item sat before any worker reached it —
		// the engine's backpressure signal.
		r.ins.wait.ObserveDuration(time.Since(r.start))
		fstart := time.Now()
		sctx, sp := obs.StartSpan(r.ctx, "scan.file")
		r.ins.inflight.Inc()
		res, prov, src, finished := r.load(sctx, r.items[i])
		var p *pendingScan
		if !finished {
			res, prov, p = r.e.prepareSource(sctx, r.ins, r.dedup, r.items[i].Name, src)
		}
		r.ins.inflight.Dec()
		sp.End()
		if p == nil {
			res.Duration = time.Since(fstart)
			r.finish(sctx, i, res, prov)
			continue
		}
		p.idx, p.prepDur = i, time.Since(fstart)
		r.pending[i] = p
	}
}

// finish records item i's final result: metrics, audit record and alert,
// its results slot, and the stream.
func (r *scanRun) finish(ctx context.Context, i int, res Result, prov provenance) {
	r.ins.observe(res)
	r.e.recordResult(ctx, res, prov)
	r.results[i], r.done[i] = res, true
	if r.emit != nil {
		r.emit(res)
	}
}

// prepareSource runs phase 1 for one source: the shared front (guards,
// cache, dedup, triage) and, when the script survives, deobfuscation, the
// full rules pass, and the classifier's prepare under the per-file
// deadline. A nil pendingScan means the result is final.
func (e *Engine) prepareSource(ctx context.Context, ins *instruments, dedup *batchDedup, name, src string) (Result, provenance, *pendingScan) {
	fctx, res, prov, key, state := e.front(ctx, ins, dedup, name, src)
	switch state {
	case frontDone:
		return res, prov, nil
	case frontFollower:
		return res, prov, &pendingScan{src: src, res: res, sctx: fctx, follower: true}
	}
	pctx, cancel := context.WithTimeout(fctx, e.cfg.Timeout)
	defer cancel()
	csrc := src
	if e.deobOn(fctx) {
		// Normalization shares the per-file deadline with prepare: a
		// pathological input cannot buy itself extra wall time by being
		// expensive to deobfuscate. The classifier sees the normalized
		// source; caching, auditing, and degradation keep using src.
		csrc, res.DeobPasses = e.normalizeSource(pctx, src)
	}
	var sh *sharedParse
	if prov.rset != nil {
		// Full rules pass, post-deobfuscation: signatures and lists see the
		// raw bytes, the normalized source, and (when a rule needs it) the
		// AST. That AST is the classifier's own parse when it can prepare
		// from one, so the script is parsed once for both. A forcing hit or
		// allow-list clear finalizes the script here and it never joins the
		// batch; annotation hits ride along on the model's verdict.
		if pc, ok := e.bc.(ProgramClassifier); ok && prov.rset.NeedsAST() {
			sh = e.parseShared(pctx, pc, csrc)
		}
		rv := e.evalRules(pctx, prov.rset, sh, name, src, csrc)
		res.RuleHits = rv.Hits
		if rv.Action != rules.ActionNone {
			return e.settle(res, key, TierRules, rv.Action == rules.ActionMalicious), prov, nil
		}
	}
	prepared, err := e.prepare(pctx, csrc, sh)
	if err != nil {
		e.degrade(fctx, &res, src, err)
		return res, prov, nil
	}
	return res, prov, &pendingScan{
		src: src, key: key, prepared: prepared,
		res: res, prov: prov, sctx: fctx,
	}
}

// prepare runs the classifier's front half, isolated: from the shared
// parse when there is one, from src otherwise. The shared path checks the
// deadline first, as PrepareBatch's parse would, so a script whose time ran
// out during the rules pass degrades with ErrTimeout either way; its
// "detect" span covers the model's part of the front half (the parse
// already happened, under the script's span).
func (e *Engine) prepare(ctx context.Context, src string, sh *sharedParse) (any, error) {
	if sh == nil {
		return e.isolated(ctx, func() (any, error) { return e.bc.PrepareBatch(ctx, src, e.limits()) })
	}
	if sh.err != nil {
		return nil, sh.err
	}
	if err := ctx.Err(); err != nil {
		return nil, classifyError(err, ctx)
	}
	return e.isolated(ctx, func() (any, error) {
		ctx, sp := obs.StartSpan(ctx, "detect")
		defer sp.End()
		return sh.pc.PreparePaths(sh.modelPaths(ctx)), nil
	})
}

// isolated runs one classifier step in its own goroutine: panics
// become ErrInternal, errors map onto the taxonomy, and the select enforces
// the deadline even against a step that ignores ctx (the cooperative parser
// cancellation bounds how long such a goroutine can linger).
func (e *Engine) isolated(ctx context.Context, step func() (any, error)) (any, error) {
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("%w: panic: %v", ErrInternal, r)}
			}
		}()
		v, err := step()
		ch <- outcome{v: v, err: classifyError(err, ctx)}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}

// limits are the engine's parser limits; the classifier adds ctx's cancel.
func (e *Engine) limits() parser.Limits {
	return parser.Limits{MaxDepth: e.cfg.MaxDepth, MaxTokens: e.cfg.MaxTokens}
}

// classifyBatch runs the classifier's batched back half with panic
// isolation under one Config.Timeout for the whole batch. The back half is
// bounded matrix arithmetic — no parsing, no per-script pathology — so the
// per-file deadline is a generous bound for it; if it is somehow exceeded,
// every pending script degrades to the fallback rather than being dropped.
func (e *Engine) classifyBatch(ctx context.Context, prepared []any) ([]bool, error) {
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	v, err := e.isolated(ctx, func() (any, error) { return e.bc.ClassifyBatch(ctx, prepared) })
	if err != nil {
		return nil, err
	}
	verdicts, _ := v.([]bool)
	if len(verdicts) != len(prepared) {
		return nil, fmt.Errorf("%w: batch returned %d verdicts for %d scripts",
			ErrInternal, len(verdicts), len(prepared))
	}
	return verdicts, nil
}

// finishPending is phase 2: one batched classification over every pending
// leader, then the followers. A follower re-runs phase 1 without dedup now
// that its leader's verdict sits in the cache, which is normally a cache
// hit; one whose leader left nothing cacheable (it degraded) takes the
// pipeline itself, in a second batch.
func (r *scanRun) finishPending() {
	leaders := r.pending[:0]
	var followers []*pendingScan
	for _, p := range r.pending {
		switch {
		case p == nil:
		case p.follower:
			followers = append(followers, p)
		default:
			leaders = append(leaders, p)
		}
	}
	r.classify(leaders)
	var again []*pendingScan
	for _, p := range followers {
		fstart := time.Now()
		res, prov, q := r.e.prepareSource(p.sctx, r.ins, nil, p.res.Path, p.src)
		if q == nil {
			res.Duration = p.prepDur + time.Since(fstart)
			r.finish(p.sctx, p.idx, res, prov)
			continue
		}
		q.idx, q.prepDur = p.idx, p.prepDur+time.Since(fstart)
		again = append(again, q)
	}
	r.classify(again)
}

// classify classifies pend in one ClassifyBatch call and finalizes each
// script. When the whole batch fails, each script degrades individually —
// the fallback is per-script, so one poisoned batch still yields a verdict
// per file. Each Result's Duration is its own phase-1 time plus the shared
// batch time, not the time it idled at the barrier.
func (r *scanRun) classify(pend []*pendingScan) {
	if len(pend) == 0 {
		return
	}
	prepared := make([]any, len(pend))
	for i, p := range pend {
		prepared[i] = p.prepared
	}
	ctx := r.ctx
	if len(pend) == 1 {
		// A batch of one belongs to its script: the classifier's spans land
		// in that script's trace and audit stage timings.
		ctx = pend[0].sctx
	}
	bctx, sp := obs.StartSpan(ctx, "scan.batch")
	bstart := time.Now()
	verdicts, err := r.e.classifyBatch(bctx, prepared)
	batchDur := time.Since(bstart)
	sp.End()
	for i, p := range pend {
		res := p.res
		if err == nil {
			res = r.e.settle(res, p.key, TierPipeline, verdicts[i])
		} else {
			r.e.degrade(p.sctx, &res, p.src, err)
		}
		res.Duration = p.prepDur + batchDur
		r.finish(p.sctx, p.idx, res, p.prov)
	}
}
