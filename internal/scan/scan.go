// Package scan is the hardened bulk-scanning engine: it drives a classifier
// over many files from a configurable worker pool while guaranteeing that
// no single input — however pathological — can take the scan down.
//
// Each file is classified inside an isolated goroutine with
//
//   - panic recovery: a panic anywhere in the pipeline becomes a structured
//     ErrInternal result instead of crashing the process;
//   - a per-file deadline enforced via context.Context and the parser's
//     cooperative cancellation;
//   - input guards: maximum file size, maximum token count, and the
//     parser's recursion-depth limit;
//   - graceful degradation: when the full pipeline fails or times out, a
//     cheap lexical fallback still produces a verdict and the result is
//     reported as Degraded rather than dropped.
//
// Results carry the error taxonomy of errors.go plus per-scan counters and
// latency percentiles (Stats), the substrate for observability layers.
package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"jsrevealer/internal/alert"
	"jsrevealer/internal/audit"
	"jsrevealer/internal/baselines"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
	"jsrevealer/internal/triage"
)

// Classifier is the full detection pipeline the engine drives. It must be
// safe for concurrent use and should honour ctx cancellation cooperatively;
// the engine additionally enforces the deadline from outside and recovers
// panics, so a misbehaving classifier degrades a file, never the scan.
type Classifier interface {
	DetectCtx(ctx context.Context, src string) (bool, error)
}

// ClassifierFunc adapts a function to the Classifier interface.
type ClassifierFunc func(ctx context.Context, src string) (bool, error)

// DetectCtx implements Classifier.
func (f ClassifierFunc) DetectCtx(ctx context.Context, src string) (bool, error) {
	return f(ctx, src)
}

// Fallback produces a cheap verdict when the full pipeline cannot. It must
// be panic-free in spirit (the engine still recovers) and bounded: it runs
// after the per-file deadline has already been spent.
type Fallback interface {
	DetectCtx(ctx context.Context, src string) (bool, error)
}

// Default resource guards.
const (
	DefaultTimeout   = 10 * time.Second
	DefaultMaxBytes  = int64(10 << 20)
	DefaultMaxTokens = 2_000_000
)

// Config tunes the engine. The zero value gets sensible hardened defaults.
type Config struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout is the per-file deadline; <= 0 means DefaultTimeout.
	// The pipeline is aborted cooperatively and the file degraded.
	Timeout time.Duration
	// MaxBytes caps the file size read for full classification; larger
	// files are degraded on a MaxBytes prefix. <= 0 means DefaultMaxBytes.
	MaxBytes int64
	// MaxTokens caps the lexer token count; <= 0 means DefaultMaxTokens.
	MaxTokens int
	// MaxDepth caps parser recursion; <= 0 means parser.DefaultMaxDepth.
	MaxDepth int
	// Fallback overrides the degradation detector; nil selects the
	// baselines lexical heuristic.
	Fallback Fallback
	// NoFallback disables degradation entirely: guarded or failing files
	// are reported as Failed instead of Degraded.
	NoFallback bool
	// CacheSize bounds the verdict cache (entries): repeated scans of
	// byte-identical content are answered from the cache without re-running
	// the pipeline. 0 selects DefaultCacheSize; negative disables caching.
	// Only clean verdicts (benign/malicious) are cached — degraded and
	// failed results are always recomputed.
	CacheSize int
	// Audit, when non-nil, receives one record per verdict: content digest,
	// outcome, which tier produced it, per-stage timings, and the request
	// provenance carried by the scan context (audit.Meta). Writes never
	// block the hot path; nil disables auditing with zero overhead.
	Audit *audit.Log
	// AuditModel is the model-generation identifier stamped into audit
	// records — the serving layer sets it to the model file's hex digest so
	// every verdict names the exact weights that produced it.
	AuditModel string
	// Triage configures the lexical pre-filter tier. The zero value
	// (Threshold 0) disables it, preserving today's behavior exactly:
	// every input runs the full pipeline. With Threshold > 0, scripts
	// whose lexical suspicion stays below the threshold short-circuit to a
	// benign verdict tagged TierTriage without ever being parsed — the
	// common benign case answered in microseconds instead of
	// milliseconds. Triage never flags: anything at or above the
	// threshold escalates to the full pipeline unchanged.
	Triage triage.Config
	// Deobfuscate configures the AST-to-AST normalization stage that runs
	// between triage and the full pipeline (see internal/deobfuscate):
	// constant folding, string-array unfolding, eval unwrapping, and friends
	// strip the obfuscation layer so the classifier sees what the script
	// does, not how it was wrapped. The zero value disables it — no parse,
	// no cost. When enabled, only the classifier sees the normalized source;
	// the cache key, audit digest, triage tier, and fallback keep answering
	// for the original bytes as submitted. Per-request override:
	// WithDeobfuscate.
	Deobfuscate deobfuscate.Config
	// Rules supplies the declarative rules layer (internal/rules): IOC
	// allow/deny lists and signatures evaluated alongside the model. nil —
	// or a provider whose Current() is nil — disables it, leaving every
	// verdict bit-identical to a rules-free engine. The engine reads
	// Current() once per scan, so hot reloads never mix generations within
	// one file. Precedence over the model: a deny hit or forcing signature
	// forces malicious regardless of score; an allow hit short-circuits
	// benign; anything else annotates the model's verdict (see
	// docs/RULES.md).
	Rules rules.Provider
	// Alert, when non-nil, receives one webhook alert per alert-worthy rule
	// verdict (deny hits and forcing signatures — rules.ShouldAlert).
	// Publishing never blocks the scan path; nil disables alerting.
	Alert alert.Publisher
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = DefaultMaxTokens
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = parser.DefaultMaxDepth
	}
	if c.Fallback == nil {
		c.Fallback = baselines.NewHeuristic()
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	return c
}

// Verdict is the outcome class of one scanned file.
type Verdict int

const (
	// VerdictBenign: the full pipeline ran and found nothing.
	VerdictBenign Verdict = iota
	// VerdictMalicious: the full pipeline flagged the file.
	VerdictMalicious
	// VerdictDegraded: the full pipeline failed or timed out and the
	// fallback produced the verdict; Result.Err holds the cause and
	// Result.Malicious the fallback's opinion.
	VerdictDegraded
	// VerdictFailed: no verdict at all (fallback disabled or failed too).
	VerdictFailed
)

// String renders the verdict for logs and CLI output.
func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictMalicious:
		return "MALICIOUS"
	case VerdictDegraded:
		return "DEGRADED"
	case VerdictFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Result is the outcome of scanning one file.
type Result struct {
	// Path identifies the input (file path or caller-chosen name).
	Path string
	// Verdict is the outcome class.
	Verdict Verdict
	// Malicious is the boolean verdict; for VerdictDegraded it comes from
	// the fallback, for VerdictFailed it is meaningless.
	Malicious bool
	// Err is nil for clean verdicts; otherwise it wraps exactly one of the
	// taxonomy sentinels (ErrParse, ErrDepthLimit, ErrTimeout, ErrTooLarge,
	// ErrInternal).
	Err error
	// Bytes is the input size.
	Bytes int64
	// Duration is the wall time spent on the file, fallback included: its
	// own load/triage/prepare time plus the shared batch classification,
	// not the time it spent waiting at the batch barrier.
	Duration time.Duration
	// Tier names what produced the verdict: TierTriage, TierPipeline,
	// TierCache, TierFallback, or TierNone (see tier.go).
	Tier string
	// DeobPasses lists the deobfuscation passes that rewrote the script
	// before classification, in pipeline order — verdict provenance, like
	// Tier. Empty when the stage is disabled, the verdict came from another
	// tier, or no pass found anything to undo.
	DeobPasses []string
	// RuleHits lists the rule matches behind the verdict, most decisive
	// first (deny, then signatures, then allow) — rule provenance, the
	// third leg alongside Tier and DeobPasses. When Tier is TierRules the
	// leading hit decided the verdict; otherwise the hits are annotations
	// riding on the model's answer. Empty when rules are disabled or
	// nothing matched.
	RuleHits []rules.Hit
}

// Stats aggregates one engine run.
type Stats struct {
	// Scanned counts all files with any result.
	Scanned int
	// Flagged counts malicious verdicts, degraded ones included.
	Flagged int
	// Degraded counts files the fallback had to cover.
	Degraded int
	// Failed counts files with no verdict at all.
	Failed int
	// Triaged counts files the lexical triage tier cleared as benign
	// without running the full pipeline (always 0 when triage is
	// disabled).
	Triaged int
	// Deobfuscated counts files the deobfuscation stage rewrote before
	// classification — at least one pass fired (always 0 when the stage is
	// disabled).
	Deobfuscated int
	// RuleMatched counts files with at least one rule hit — forcing or
	// annotating (always 0 when rules are disabled).
	RuleMatched int
	// Per-error-taxonomy counts over degraded and failed files, derived
	// from Result.Err (see Reason). Their sum equals Degraded+Failed.
	ParseErrors int
	Timeouts    int
	TooLarge    int
	DepthLimit  int
	Internal    int
	// Wall is the end-to-end scan time.
	Wall time.Duration
	// P50 and P99 are per-file latency percentiles.
	P50, P99 time.Duration
}

// Engine scans files concurrently with panic isolation, deadlines, input
// guards, and graceful degradation. It is safe for concurrent use.
type Engine struct {
	bc     BatchClassifier // the classifier, or detectAdapter around it
	cfg    Config
	cache  *verdictCache         // nil when caching is disabled
	triage *triage.Scorer        // nil when the triage tier is disabled
	deob   *deobfuscate.Pipeline // always built; use is gated per scan (deobOn)
}

// New builds an engine around a classifier; one that does not implement
// BatchClassifier is driven through detectAdapter. cfg zero-values select
// the hardened defaults.
func New(c Classifier, cfg Config) *Engine {
	bc, ok := c.(BatchClassifier)
	if !ok {
		bc = detectAdapter{c}
	}
	e := &Engine{bc: bc, cfg: cfg.withDefaults()}
	if e.cfg.CacheSize > 0 {
		e.cache = newVerdictCache(e.cfg.CacheSize)
	}
	if e.cfg.Triage.Enabled() {
		e.triage = triage.New(e.cfg.Triage)
	}
	// The pipeline is built unconditionally (it is a handful of words) so a
	// per-request WithDeobfuscate override works even when the engine-wide
	// default is off.
	e.deob = deobfuscate.NewPipeline(e.cfg.Deobfuscate)
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ScanDir walks dir and scans every .js file. Unreadable files or
// directory entries become Failed results; the walk itself never aborts on
// a per-entry error. The returned error is non-nil only when the root
// itself is unusable.
func (e *Engine) ScanDir(ctx context.Context, dir string) ([]Result, Stats, error) {
	var paths []string
	var broken []Result
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == dir {
				return err
			}
			broken = append(broken, Result{
				Path:    path,
				Verdict: VerdictFailed,
				Tier:    TierNone,
				Err:     fmt.Errorf("%w: %v", ErrInternal, err),
			})
			return nil
		}
		if !d.IsDir() && strings.HasSuffix(path, ".js") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	results, stats := e.ScanFiles(ctx, paths)
	ins := newInstruments(obs.FromContext(ctx))
	for _, r := range broken {
		ins.observe(r)
	}
	results = append(results, broken...)
	stats.Scanned += len(broken)
	stats.Failed += len(broken)
	stats.Internal += len(broken)
	return results, stats, nil
}

// ScanFiles scans the given files through the worker pool and returns one
// Result per path, in input order, plus aggregate statistics. Per-file
// latency, queue wait, verdict, and error-taxonomy metrics are recorded
// into the registry carried by ctx (obs.Default() otherwise).
func (e *Engine) ScanFiles(ctx context.Context, paths []string) ([]Result, Stats) {
	items := make([]Source, len(paths))
	for i, p := range paths {
		items[i].Name = p
	}
	return e.run(ctx, items, e.loadFile, nil)
}

// Source is one named in-memory script for ScanSources.
type Source struct {
	// Name identifies the script in results and logs (a batch submission's
	// per-record name, for example); it need not be a real path.
	Name string
	// Content is the script source.
	Content string
}

// ScanSources scans in-memory sources through the worker pool under the
// same guards as ScanFiles. When emit is non-nil it is invoked once per
// finished result, in completion order, from worker goroutines — emit must
// be safe for concurrent use. This is the substrate for streaming batch
// APIs: callers can forward each verdict as it lands instead of waiting for
// the whole batch. Aggregate statistics are returned once every source is
// done; per-file metrics land in the registry carried by ctx.
func (e *Engine) ScanSources(ctx context.Context, srcs []Source, emit func(Result)) Stats {
	_, stats := e.run(ctx, srcs, loadMemory, emit)
	return stats
}

// ScanSource scans one in-memory script under the engine's guards,
// recording the same per-file metrics as ScanFiles.
func (e *Engine) ScanSource(ctx context.Context, name, src string) Result {
	results, _ := e.run(ctx, []Source{{Name: name, Content: src}}, loadMemory, nil)
	return results[0]
}

// loadMemory is the driver's loader for in-memory sources.
func loadMemory(_ context.Context, it Source) (Result, provenance, string, bool) {
	return Result{}, provenance{}, it.Content, false
}

// loadFile is the driver's loader for files: it stats and reads the path
// it.Name under the engine's size guard. A true finished flag means the
// file never reaches the pipeline: stat/read failure (Failed) or oversize
// (degraded on a MaxBytes prefix, never fully read). Duration is left for
// the caller to stamp.
func (e *Engine) loadFile(ctx context.Context, it Source) (Result, provenance, string, bool) {
	path := it.Name
	res := Result{Path: path}
	prov := provenance{cache: "off"}
	info, err := os.Stat(path)
	if err != nil {
		res.Verdict, res.Tier = VerdictFailed, TierNone
		res.Err = fmt.Errorf("%w: %v", ErrInternal, err)
		return res, prov, "", true
	}
	if info.Size() > e.cfg.MaxBytes {
		res.Bytes = info.Size()
		prefix, err := readPrefix(path, e.cfg.MaxBytes)
		if err != nil {
			res.Verdict, res.Tier = VerdictFailed, TierNone
			res.Err = fmt.Errorf("%w: %v", ErrInternal, err)
			return res, prov, "", true
		}
		e.degrade(ctx, &res, prefix, fmt.Errorf("%w: file is %d bytes (limit %d)",
			ErrTooLarge, info.Size(), e.cfg.MaxBytes))
		if e.cfg.Audit != nil {
			// Only the scanned prefix was ever read; its digest is what the
			// verdict answers for.
			prov.sha = hexKey(contentKey(prefix))
		}
		return res, prov, "", true
	}
	data, err := os.ReadFile(path)
	if err != nil {
		res.Verdict, res.Tier = VerdictFailed, TierNone
		res.Err = fmt.Errorf("%w: %v", ErrInternal, err)
		return res, prov, "", true
	}
	return res, provenance{}, string(data), false
}

// frontState is front's outcome.
type frontState int

const (
	// frontDone: res is final (guard failure, cache hit, deny-list hit, or
	// triage clear).
	frontDone frontState = iota
	// frontPipeline: the script goes on to deobfuscation, rules, and the
	// classifier.
	frontPipeline
	// frontFollower: byte-identical content is already pipeline-bound in
	// this run (see batchDedup); finalize after the batch, when the
	// leader's verdict has landed in the cache.
	frontFollower
)

// front runs everything that comes before the full pipeline: the size
// guard, the verdict cache, batch deduplication, the pre-triage deny-list
// stage, and the triage tier. Content already classified cleanly by this
// engine is answered from the cache, and — when the triage tier is enabled
// — plainly benign content is cleared lexically, both without running the
// pipeline. The returned context carries the stage-timing collector when
// auditing and must be used for the pipeline.
func (e *Engine) front(ctx context.Context, ins *instruments, dedup *batchDedup, name, src string) (context.Context, Result, provenance, cacheKey, frontState) {
	res := Result{Path: name, Bytes: int64(len(src))}
	var prov provenance
	var key cacheKey
	auditing := e.cfg.Audit != nil
	if auditing {
		prov.cache = "off"
		prov.stages = obs.NewStageTimings()
		ctx = obs.WithStageTimings(ctx, prov.stages)
	}
	if int64(len(src)) > e.cfg.MaxBytes {
		// Oversized inputs never reach the rules layer: the pipeline only
		// ever sees a prefix, and a deny verdict must answer for the whole
		// input or not at all.
		e.degrade(ctx, &res, src[:e.cfg.MaxBytes], fmt.Errorf("%w: input is %d bytes (limit %d)",
			ErrTooLarge, len(src), e.cfg.MaxBytes))
		if auditing {
			// Digest the full input, not the scanned prefix: the audit line
			// must answer for the content as submitted.
			prov.sha = hexKey(contentKey(src))
		}
		return ctx, res, prov, key, frontDone
	}
	// The rule set is read once per scan and pinned in the provenance: a hot
	// reload mid-scan must never mix generations within one file. Generation
	// 0 means rules are disabled.
	prov.rset = e.currentRules()
	if e.cache != nil || auditing || e.cfg.Alert != nil {
		key = cacheKey{sum: contentKey(src), deob: e.deobOn(ctx), rulesGen: prov.rset.Generation()}
		if auditing || e.cfg.Alert != nil {
			prov.sha = hexKey(key.sum)
		}
	}
	if e.cache != nil {
		if ent, ok := e.cache.get(key); ok {
			ins.cacheHit.Inc()
			res.Verdict, res.Malicious, res.Tier = ent.verdict, ent.malicious, TierCache
			res.RuleHits = ent.ruleHits
			if auditing {
				prov.cache, prov.cacheTier = "hit", ent.tier
			}
			return ctx, res, prov, key, frontDone
		}
		if dedup != nil && !dedup.claim(key) {
			// Byte-identical content is already bound for the pipeline in
			// this run. Don't parse it again: finalize this one after the
			// batch, when the leader's verdict sits in the cache. Hit/miss
			// accounting happens then, on the re-check.
			return ctx, res, prov, key, frontFollower
		}
		ins.cacheMis.Inc()
		if auditing {
			prov.cache = "miss"
		}
	}
	if prov.rset != nil {
		// Pre-triage deny stage: deny-list IOCs match on the raw bytes, so a
		// deny-listed indicator convicts before triage can clear the script
		// — a deny verdict must not depend on the lexical score. Signatures
		// wait for the full rules pass after deobfuscation (prepareSource),
		// where they see the normalized source and the AST.
		if rv := prov.rset.EvalText(ctx, src); rv.Action == rules.ActionMalicious {
			res.RuleHits = rv.Hits
			return ctx, e.settle(res, key, TierRules, true), prov, key, frontDone
		}
	}
	if e.triage != nil && e.triage.Clear(src) {
		// The lexical pre-filter found nothing suspicious: short-circuit to
		// benign without parsing. Triage never flags — everything it cannot
		// clear escalates to the pipeline.
		return ctx, e.settle(res, key, TierTriage, false), prov, key, frontDone
	}
	return ctx, res, prov, key, frontPipeline
}

// settle stamps a clean verdict produced by tier onto res and caches it
// under key (rule hits included, so a cache hit replays the provenance).
func (e *Engine) settle(res Result, key cacheKey, tier string, malicious bool) Result {
	res.Verdict, res.Malicious, res.Tier = VerdictBenign, malicious, tier
	if malicious {
		res.Verdict = VerdictMalicious
	}
	if e.cache != nil {
		e.cache.put(key, cacheEntry{verdict: res.Verdict, malicious: malicious, tier: tier, ruleHits: res.RuleHits})
	}
	return res
}

// degrade fills res with the fallback verdict for a script whose full
// pipeline failed (or was never attempted) with cause: degraded with the
// fallback's opinion, or failed when the fallback is disabled or fails too.
// The fallback runs with panic isolation and without the (already spent)
// per-file deadline.
func (e *Engine) degrade(ctx context.Context, res *Result, src string, cause error) {
	res.Verdict, res.Malicious, res.Tier, res.Err = VerdictFailed, false, TierNone, cause
	if e.cfg.NoFallback {
		return
	}
	ctx, sp := obs.StartSpan(ctx, "scan.fallback")
	defer sp.End()
	malicious, err := func() (v bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fallback panic: %v", r)
			}
		}()
		return e.cfg.Fallback.DetectCtx(ctx, src)
	}()
	if err != nil {
		res.Err = fmt.Errorf("%w (fallback also failed: %v)", cause, err)
		return
	}
	res.Verdict, res.Malicious, res.Tier = VerdictDegraded, malicious, TierFallback
}

// readPrefix reads at most n bytes from path.
func readPrefix(path string, n int64) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, n)
	read, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return "", err
	}
	return string(buf[:read]), nil
}

// summarize computes aggregate statistics over one run's results.
func summarize(results []Result, wall time.Duration) Stats {
	s := Stats{Scanned: len(results), Wall: wall}
	durs := make([]time.Duration, 0, len(results))
	for _, r := range results {
		switch r.Verdict {
		case VerdictDegraded:
			s.Degraded++
		case VerdictFailed:
			s.Failed++
		}
		if r.Tier == TierTriage {
			s.Triaged++
		}
		if len(r.DeobPasses) > 0 {
			s.Deobfuscated++
		}
		if len(r.RuleHits) > 0 {
			s.RuleMatched++
		}
		if r.Malicious && r.Verdict != VerdictFailed {
			s.Flagged++
		}
		switch Reason(r.Err) {
		case "parse":
			s.ParseErrors++
		case "timeout":
			s.Timeouts++
		case "too_large":
			s.TooLarge++
		case "depth_limit":
			s.DepthLimit++
		case "internal":
			s.Internal++
		}
		durs = append(durs, r.Duration)
	}
	if len(durs) > 0 {
		slices.Sort(durs)
		s.P50 = durs[len(durs)/2]
		s.P99 = durs[(len(durs)*99)/100]
	}
	return s
}
