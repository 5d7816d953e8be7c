// Package serve is the production serving subsystem behind `jsrevealer
// serve`: everything HTTP-facing in one self-contained, stdlib-only layer.
//
// Four pillars:
//
//   - Batch and async APIs. POST /scan accepts many scripts per request
//     (concatenated NDJSON records or multipart parts) and streams one
//     NDJSON verdict line per script as results complete off the scan
//     engine's worker pool. POST /jobs + GET /jobs/{id} run submissions
//     too large to hold a connection open for as async jobs on one
//     internal/queue job queue — bounded by MaxJobs, leased with retries,
//     results kept for JobTTL — memory-only by default, WAL-backed and
//     crash-durable with Config.QueueDir.
//
//   - Admission control. A bounded admission queue (concurrency slots plus
//     a waiting room) with queue-wait accounting fast-fails 429 with
//     Retry-After when full; a per-client token bucket (keyed by X-Client
//     or remote host) sheds abusive callers; per-request byte limits stop
//     unbounded buffering before the engine's own guards even apply.
//
//   - Model hot-reload. The live model sits behind an atomic pointer and
//     is swapped by SIGHUP or POST /admin/reload. A candidate model must
//     classify an embedded smoke corpus without error before it takes
//     traffic, and /version exposes the live model's path, SHA-256, and
//     load time.
//
//   - Graceful drain. Drain stops admitting work, flips /healthz to 503
//     "draining" so load balancers back off, and waits for accepted async
//     jobs to finish (in durable mode only for the running ones; queued
//     jobs wait in the WAL for the next start); in-flight HTTP requests
//     are left to the caller's http.Server.Shutdown.
//
// Every pillar emits jsrevealer_serve_* metrics through internal/obs, so
// the whole subsystem is visible on the same /metrics surface as the scan
// engine and detector stages.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jsrevealer/internal/alert"
	"jsrevealer/internal/audit"
	"jsrevealer/internal/core"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/queue"
	"jsrevealer/internal/rules"
	"jsrevealer/internal/scan"
)

// Defaults for Config zero values.
const (
	// DefaultMaxBody caps one request body at 16MiB.
	DefaultMaxBody = int64(16 << 20)
	// DefaultMaxBatch caps scripts per batch request.
	DefaultMaxBatch = 256
	// DefaultMaxQueue is the admission waiting room size.
	DefaultMaxQueue = 64
	// DefaultMaxJobs bounds the async job backlog.
	DefaultMaxJobs = 256
	// DefaultJobWorkers drain the async job queue.
	DefaultJobWorkers = 2
	// DefaultJobTTL keeps finished jobs pollable this long.
	DefaultJobTTL = 10 * time.Minute
	// DefaultDrainTimeout bounds graceful shutdown.
	DefaultDrainTimeout = 5 * time.Second
	// DefaultQueueLease is how long one job delivery may run between
	// heartbeats.
	DefaultQueueLease = 30 * time.Second
)

// Config tunes the serving subsystem. The zero value serves without a
// model (work endpoints answer 503) under default admission limits.
type Config struct {
	// ModelPath enables the work endpoints; empty serves observability only.
	ModelPath string
	// Loader loads ModelPath into a classifier; nil selects the production
	// core.Detector loader. Tests inject stubs here.
	Loader Loader
	// Scan configures the engine built around each loaded model (workers,
	// per-file timeout, byte/token guards, verdict-cache size) — the knobs
	// shared with the detect CLI.
	Scan scan.Config
	// MaxBody caps one request body in bytes; <= 0 means DefaultMaxBody.
	MaxBody int64
	// MaxBatch caps scripts per batch request; <= 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxConcurrent bounds requests executing at once; <= 0 means twice
	// GOMAXPROCS (work endpoints are scan-bound, so a small multiple of
	// the engine's own parallelism keeps the queue meaningful).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// fast-fail 429. 0 means DefaultMaxQueue; negative means no waiting
	// room at all.
	MaxQueue int
	// RatePerSec enables per-client token-bucket rate limiting; 0 disables.
	RatePerSec float64
	// Burst is the token-bucket capacity; <= 0 means max(1, RatePerSec).
	Burst int
	// MaxJobs bounds the async job backlog: unfinished (pending plus
	// running) jobs beyond which POST /jobs answers 429. <= 0 means
	// DefaultMaxJobs.
	MaxJobs int
	// JobWorkers is the async worker count; <= 0 means DefaultJobWorkers.
	JobWorkers int
	// JobTTL keeps finished jobs pollable; <= 0 means DefaultJobTTL.
	JobTTL time.Duration
	// DrainTimeout bounds Drain and the caller's server shutdown; <= 0
	// means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// QueueDir makes the job queue durable: async jobs are persisted to a
	// WAL under this directory and survive crashes and restarts. Empty
	// keeps them in memory only.
	QueueDir string
	// QueueLease is the job delivery lease; a worker that misses
	// heartbeats for this long loses the job to another worker. <= 0 means
	// DefaultQueueLease.
	QueueLease time.Duration
	// QueueMaxAttempts is the delivery budget before a job fails
	// (dead-letters); <= 0 means the queue default (5).
	QueueMaxAttempts int
	// TraceBuffer bounds the in-process trace store backing /debug/traces
	// (recently finished traces kept for inspection). 0 selects
	// obs.DefaultTraceCap; negative disables trace retention entirely.
	TraceBuffer int
	// SlowTrace is the root-span latency past which a finished trace is
	// held in the store's slow ring (biased retention: fast traffic cannot
	// evict it) and an automatic CPU profile may fire; <= 0 means
	// obs.DefaultSlowThreshold.
	SlowTrace time.Duration
	// ProfileDir receives automatic slow-trace CPU profiles; empty
	// disables capture.
	ProfileDir string
	// AuditDir enables the verdict audit trail: one crash-safe NDJSON line
	// per verdict (and per admission reject / evicted poll) under this
	// directory. Empty disables auditing.
	AuditDir string
	// AuditMaxBytes rotates audit files past this size; <= 0 means
	// audit.DefaultMaxFileBytes. Only meaningful with AuditDir.
	AuditMaxBytes int64
	// RulesDir enables the declarative rules layer: *.json rule files
	// (internal/rules) loaded at startup and hot-reloadable via SIGHUP or
	// POST /admin/reload-rules. A broken directory fails startup; a broken
	// reload keeps the previous rule set serving. Empty disables rules.
	RulesDir string
	// AlertWebhook, when non-empty, is the http(s) endpoint that receives
	// one JSON alert per deny hit or forcing-signature verdict. Delivery is
	// asynchronous with retries and never blocks scans.
	AlertWebhook string
}

func (c Config) withDefaults() Config {
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = DefaultMaxQueue
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.Burst <= 0 {
		c.Burst = int(c.RatePerSec)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = DefaultJobWorkers
	}
	if c.JobTTL <= 0 {
		c.JobTTL = DefaultJobTTL
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.QueueLease <= 0 {
		c.QueueLease = DefaultQueueLease
	}
	return c
}

// Server is the serving subsystem: handler wiring, admission control, the
// async job machinery, and the live-model holder. Build with New, expose
// Handler() behind an http.Server, and call Drain then Close on shutdown.
type Server struct {
	cfg Config
	reg *obs.Registry
	met *metrics

	holder *holder // nil when no model is configured
	adm    *admission
	rl     *rateLimiter // nil when rate limiting is disabled

	traces *obs.TraceStore // nil when trace retention is disabled
	audit  *audit.Log      // nil when auditing is disabled
	rules  *rules.Holder   // nil when the rules layer is disabled
	alerts *alert.Sink     // nil when alerting is disabled

	// q holds the async jobs (in memory, or in a WAL under cfg.QueueDir),
	// workerCancel stops the job workers' Next loops, progress exposes
	// verdicts of running jobs to polls, and jobsPending counts leases the
	// workers are running.
	q            *queue.Queue
	workerCancel context.CancelFunc
	progress     progressTable
	jobsPending  atomic.Int64

	draining atomic.Bool
	stopOnce sync.Once

	handler http.Handler
}

// New assembles the subsystem against reg (obs.Default() when nil),
// loading and shadow-validating the model when cfg.ModelPath is set. The
// full metric surface — detector stages, scan engine, and serve families —
// is pre-registered so /metrics is complete before the first request.
func New(cfg Config, reg *obs.Registry) (*Server, error) {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.Default()
	}
	core.RegisterStageMetrics(reg)
	scan.RegisterMetrics(reg)
	met := newMetrics(reg)
	s := &Server{
		cfg: cfg,
		reg: reg,
		met: met,
		adm: newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, met),
	}
	if cfg.RatePerSec > 0 {
		s.rl = newRateLimiter(cfg.RatePerSec, cfg.Burst)
	}
	if cfg.TraceBuffer >= 0 {
		s.traces = obs.NewTraceStore(obs.TraceStoreOptions{
			Cap:           cfg.TraceBuffer,
			SlowThreshold: cfg.SlowTrace,
			ProfileDir:    cfg.ProfileDir,
		})
	}
	if cfg.AuditDir != "" {
		al, err := audit.Open(cfg.AuditDir, audit.Options{
			MaxFileBytes: cfg.AuditMaxBytes,
			Registry:     reg,
		})
		if err != nil {
			return nil, err
		}
		s.audit = al
	}
	if cfg.RulesDir != "" {
		// The rules layer loads before the model so a broken rule directory
		// fails startup loudly instead of silently serving model-only.
		s.rules = rules.NewHolder(cfg.RulesDir, reg)
		if _, err := s.rules.Reload(); err != nil {
			s.audit.Close()
			return nil, err
		}
	}
	if cfg.AlertWebhook != "" {
		sink, err := alert.Open(alert.Config{URL: cfg.AlertWebhook, Registry: reg})
		if err != nil {
			s.audit.Close()
			return nil, err
		}
		s.alerts = sink
	}
	if cfg.ModelPath != "" {
		// Each model generation gets its own engine carrying the audit sink
		// and its generation sha, so audit lines name the exact weights. The
		// rules holder is shared across model generations: a model reload
		// keeps the live rule set, and vice versa.
		scanCfg := cfg.Scan
		scanCfg.Audit = s.audit
		if s.rules != nil {
			scanCfg.Rules = s.rules
		}
		if s.alerts != nil {
			scanCfg.Alert = s.alerts
		}
		s.holder = newHolder(cfg.Loader, scanCfg)
		if _, err := s.holder.reload(cfg.ModelPath); err != nil {
			s.alerts.Close()
			s.audit.Close()
			return nil, err
		}
		met.reloadOK.Inc()
	}
	// Async jobs: memory-only by default; with QueueDir a WAL keeps
	// accepted work across kill -9 and restart.
	q, err := queue.Open(cfg.QueueDir, queue.Options{
		MaxAttempts:   cfg.QueueMaxAttempts,
		LeaseDuration: cfg.QueueLease,
		ResultTTL:     cfg.JobTTL,
		Registry:      reg,
	})
	if err != nil {
		s.alerts.Close()
		s.audit.Close()
		return nil, err
	}
	s.q = q
	s.progress.m = make(map[string][]verdictLine)
	ctx, cancel := context.WithCancel(context.Background())
	s.workerCancel = cancel
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.jobWorker(ctx, i)
	}
	s.handler = s.buildMux()
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the subsystem's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// engine returns the live model's engine, or nil before any model loads.
func (s *Server) engine() *scan.Engine {
	if s.holder == nil {
		return nil
	}
	if m := s.holder.current(); m != nil {
		return m.engine
	}
	return nil
}

// Reload loads and shadow-validates path (the current model path when
// empty) and atomically swaps it in. On error the previous model keeps
// serving; either way the attempt lands on the reload counters.
func (s *Server) Reload(path string) (Version, error) {
	if s.holder == nil {
		return Version{}, errors.New("serve: no model configured")
	}
	if path == "" {
		if m := s.holder.current(); m != nil {
			path = m.path
		}
	}
	_, err := s.holder.reload(path)
	if err != nil {
		s.met.reloadErr.Inc()
		return s.holder.version(), err
	}
	s.met.reloadOK.Inc()
	return s.holder.version(), nil
}

// ReloadRules re-reads the rule directory and — after shadow validation —
// swaps the new generation in. On error the previous rule set keeps serving
// untouched.
func (s *Server) ReloadRules() (rules.Info, error) {
	if s.rules == nil {
		return rules.Info{}, errors.New("serve: no rules directory configured")
	}
	return s.rules.Reload()
}

// Version reports the live model's provenance, plus the live rule set's
// when the rules layer is enabled.
func (s *Server) Version() Version {
	var v Version
	if s.holder != nil {
		v = s.holder.version()
	}
	if s.rules != nil {
		info := s.rules.Info()
		v.Rules = &info
	}
	return v
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting new work (every work endpoint answers 503 and
// /healthz flips to draining) and waits for accepted async jobs to finish,
// up to ctx's deadline. In memory mode the workers keep leasing until the
// queue is empty, because queued jobs would die with the process. In
// durable mode only leases held by this process are waited for — queued
// jobs persist in the WAL and resume on the next start, which is the whole
// point. In-flight synchronous requests are the caller's
// http.Server.Shutdown's responsibility.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.durable() {
		// Workers stop leasing new jobs; held leases run out.
		s.workerCancel()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.jobsPending.Load() == 0 && (s.durable() || s.q.Depth() == 0) {
			s.workerCancel()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the async job workers and closes the queue. Call after
// Drain on shutdown; in-memory jobs still unfinished (drain timed out) are
// abandoned, durable ones stay in the WAL for the next start.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		s.workerCancel()
		s.q.Close()
		// Drain queued alerts, then flush and fsync the audit tail; records
		// from still-running goroutines after this point are dropped and
		// counted.
		s.alerts.Close()
		s.audit.Close()
	})
}

// buildMux wires every route. Work endpoints pass through instrumentation
// (per-endpoint latency) and admission (drain check, model check, rate
// limit, bounded queue); observability endpoints stay un-gated so /metrics
// and /healthz keep answering under overload and drain.
func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(s.reg))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)

	mux.Handle("POST /detect", s.instrument("/detect", s.traced("serve.detect", "detect", s.admit(http.HandlerFunc(s.handleDetect)))))
	mux.Handle("POST /scan", s.instrument("/scan", s.traced("serve.scan", "scan", s.admit(http.HandlerFunc(s.handleScan)))))
	mux.Handle("POST /jobs", s.instrument("/jobs", s.traced("serve.jobs", "jobs", s.admit(http.HandlerFunc(s.handleJobSubmit)))))
	mux.Handle("GET /jobs/{id}", s.traced("serve.jobs.get", "jobs", http.HandlerFunc(s.handleJobGet)))
	mux.Handle("POST /admin/reload", s.instrument("/admin/reload", s.traced("serve.reload", "admin", http.HandlerFunc(s.handleReload))))
	mux.Handle("POST /admin/reload-rules", s.instrument("/admin/reload-rules", s.traced("serve.reload_rules", "admin", http.HandlerFunc(s.handleReloadRules))))
	mux.HandleFunc("GET /version", s.handleVersion)
	return mux
}

// traced is the request-tracing middleware in front of every API endpoint:
// it joins the caller's trace when the request carries a W3C traceparent
// header (otherwise a fresh 128-bit trace id is minted), opens the
// endpoint's root span, and answers with `traceparent` and `X-Request-Id`
// response headers — so callers can correlate any response, including
// rejections, with /debug/traces/{id} and the audit trail. The request id
// is the caller's X-Request-Id when present, the trace id otherwise.
func (s *Server) traced(span, source string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithRegistry(r.Context(), s.reg)
		if s.traces != nil {
			ctx = obs.WithTraceStore(ctx, s.traces)
		}
		if rc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.ContextWithRemote(ctx, rc)
		}
		ctx, sp := obs.StartSpan(ctx, span)
		defer sp.End()
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = sp.TraceID.String()
		} else {
			sp.SetAttr("request_id", reqID)
		}
		w.Header().Set("traceparent", sp.Context().Traceparent())
		w.Header().Set("X-Request-Id", reqID)
		ctx = audit.WithMeta(ctx, audit.Meta{Source: source, RequestID: reqID})
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// instrument records per-endpoint latency around h.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	hist := s.met.latency[endpoint]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		hist.ObserveDuration(time.Since(start))
	})
}

// admit is the admission-control gate in front of every work endpoint:
// drain check, model presence, per-client rate limit, then the bounded
// concurrency queue. Rejections are counted by reason and carry
// Retry-After where retrying makes sense.
func (s *Server) admit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.reject(w, r, "draining", http.StatusServiceUnavailable, 0, "server is draining")
			return
		}
		if s.engine() == nil {
			s.reject(w, r, "no_model", http.StatusServiceUnavailable, 0, "no model loaded")
			return
		}
		if s.rl != nil {
			if ok, retry := s.rl.allow(clientKey(r), time.Now()); !ok {
				secs := int(retry.Seconds()) + 1
				s.reject(w, r, "rate_limited", http.StatusTooManyRequests, secs, "client rate limit exceeded")
				return
			}
		}
		release, queueFull := s.adm.acquire(r.Context().Done())
		if release == nil {
			if queueFull {
				s.reject(w, r, "queue_full", http.StatusTooManyRequests, 1, "admission queue full")
			}
			// Otherwise the client went away while queued; nothing to say.
			return
		}
		defer release()
		h.ServeHTTP(w, r)
	})
}

// reject answers an admission failure, counts it, and leaves an audit line
// so shed load is as accountable as served load.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, reason string, status, retryAfter int, msg string) {
	if c, ok := s.met.rejects[reason]; ok {
		c.Inc()
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	if s.audit != nil {
		m := audit.MetaFromContext(r.Context())
		rec := audit.Record{Kind: "reject", Reason: reason, Source: m.Source, RequestID: m.RequestID}
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			rec.TraceID = sp.TraceID.String()
		}
		s.audit.Write(rec)
	}
	writeJSONError(w, status, msg)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeJSONError answers status with {"error": msg}, echoing the request id
// the traced middleware stamped on the response headers — every error body,
// 4xx or 5xx, names the id to quote when reporting the failure.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	body := map[string]string{"error": msg}
	if id := w.Header().Get("X-Request-Id"); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}

// handleHealthz is the load-balancer probe: 200 ok while serving, 503
// draining once shutdown starts so traffic backs off before the listener
// closes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// deobCtx resolves the optional ?deobfuscate= query parameter into a scan
// context: absent keeps the engine's configured default, a boolean value
// overrides it for this request only (scan.WithDeobfuscate). An
// unparseable value is a client error.
func deobCtx(r *http.Request) (context.Context, error) {
	v := r.URL.Query().Get("deobfuscate")
	if v == "" {
		return r.Context(), nil
	}
	on, err := strconv.ParseBool(v)
	if err != nil {
		return nil, errors.New("invalid deobfuscate value (want a boolean)")
	}
	return scan.WithDeobfuscate(r.Context(), on), nil
}

// handleDetect classifies a single raw-JS POST body — the original
// one-script endpoint, kept for simple callers and the CLI smoke tests.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	ctx, err := deobCtx(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		if isBodyTooLarge(err) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, "request body exceeds the size limit")
		} else {
			writeJSONError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "request.js"
	}
	// The traced middleware already stocked the context with the registry,
	// trace store, root span, and audit provenance.
	res := s.engine().ScanSource(ctx, name, string(body))
	resp := map[string]any{
		"path":      res.Path,
		"verdict":   res.Verdict.String(),
		"malicious": res.Malicious,
	}
	if res.Tier != "" {
		resp["tier"] = res.Tier
	}
	if len(res.DeobPasses) > 0 {
		resp["deob_passes"] = res.DeobPasses
	}
	if len(res.RuleHits) > 0 {
		resp["rule_hits"] = res.RuleHits
	}
	if res.Err != nil {
		resp["error"] = res.Err.Error()
		resp["reason"] = scan.Reason(res.Err)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleScan is the streaming batch endpoint: parse the whole submission,
// fan it across the engine's worker pool, and flush one NDJSON verdict
// line per script as it completes — a slow script never blocks verdicts
// for the rest of the batch (lines arrive in completion order).
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	ctx, err := deobCtx(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	srcs, err := parseBatch(r, s.cfg.MaxBatch)
	if err != nil {
		var be *batchError
		if errors.As(err, &be) {
			writeJSONError(w, be.status, be.msg)
		} else {
			writeJSONError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	s.engine().ScanSources(ctx, srcs, func(res scan.Result) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(toLine(res))
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// handleReload swaps the model: the current path by default, or ?path= to
// point the server at a new file. Validation failures leave the old model
// serving and answer 422 with the cause.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.holder == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "no model configured")
		return
	}
	v, err := s.Reload(r.URL.Query().Get("path"))
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleReloadRules re-reads the rule directory. Validation failures —
// parse errors, ref cycles, a set that denies the benign shadow corpus —
// leave the old rule set serving and answer 422 with the cause, without a
// moment of dropped or un-ruled traffic.
func (s *Server) handleReloadRules(w http.ResponseWriter, _ *http.Request) {
	if s.rules == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "no rules directory configured")
		return
	}
	info, err := s.ReloadRules()
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleVersion reports the live model's provenance.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Version())
}
