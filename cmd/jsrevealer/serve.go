package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/scan"
	"jsrevealer/internal/serve"
	"jsrevealer/internal/triage"
)

// runServe is a flag-parsing wrapper around internal/serve: it builds the
// subsystem's Config from flags, binds the listener, wires SIGHUP to model
// hot-reload, and drives the graceful-drain shutdown sequence. Everything
// HTTP-facing lives in internal/serve.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address (host:port, port 0 picks a free one)")
	model := fs.String("model", "", "optional model path; enables /detect, /scan, and /jobs")
	readyFile := fs.String("ready-file", "", "write the resolved listen address to this file once serving (removed on exit)")
	logLevel := fs.String("log-level", "info", "structured log level: debug|info|warn|error|off")

	// Scan-engine knobs, shared with the detect CLI.
	workers := fs.Int("workers", 0, "scan worker pool size; 0 = GOMAXPROCS")
	timeout := fs.Duration("timeout", 0, "per-script deadline; 0 = engine default")
	maxBytes := fs.Int64("max-bytes", 0, "per-script size cap in bytes; 0 = engine default")
	cacheSize := fs.Int("cache-size", 0, "verdict cache entries; 0 = default, negative disables")
	triageThreshold := fs.Float64("triage-threshold", 0,
		"lexical triage threshold in (0,1]: scripts scoring below it are cleared as benign without parsing; 0 disables the triage tier")
	deob := fs.Bool("deobfuscate", false,
		"normalize scripts through the deobfuscation pipeline before classification; per-request ?deobfuscate= overrides")
	rulesDir := fs.String("rules-dir", "",
		"directory of *.json rule files (IOC lists and signatures) combined with the model; hot-reloadable via SIGHUP or POST /admin/reload-rules (empty disables)")
	alertWebhook := fs.String("alert-webhook", "",
		"http(s) endpoint POSTed one JSON alert per deny hit or forcing-signature verdict (empty disables)")

	// Serving-subsystem knobs.
	maxBody := fs.Int64("max-body", serve.DefaultMaxBody, "per-request body cap in bytes")
	maxBatch := fs.Int("max-batch", serve.DefaultMaxBatch, "max scripts per batch request")
	maxConcurrent := fs.Int("max-concurrent", 0, "max requests executing at once; 0 = 2x GOMAXPROCS")
	maxQueue := fs.Int("max-queue", serve.DefaultMaxQueue, "admission waiting room; beyond it requests fast-fail 429 (negative = none)")
	rate := fs.Float64("rate", 0, "per-client requests/second token-bucket rate; 0 disables rate limiting")
	burst := fs.Int("burst", 0, "rate-limit burst; 0 = max(1, -rate)")
	maxJobs := fs.Int("max-jobs", serve.DefaultMaxJobs, "async job backlog: unfinished jobs beyond which POST /jobs answers 429")
	jobWorkers := fs.Int("job-workers", serve.DefaultJobWorkers, "async job worker count")
	jobTTL := fs.Duration("job-ttl", serve.DefaultJobTTL, "how long finished jobs stay pollable")
	drainTimeout := fs.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful shutdown budget: finish in-flight work before exiting")

	// Job-queue knobs.
	queueDir := fs.String("queue-dir", "", "durable job queue directory; jobs survive crashes and restarts (empty = in-memory jobs)")
	queueLease := fs.Duration("queue-lease", serve.DefaultQueueLease, "job delivery lease; a worker missing heartbeats this long loses the job")
	queueAttempts := fs.Int("queue-attempts", 0, "delivery attempts before a job fails (dead-letters); 0 = queue default")

	// Tracing and audit knobs.
	traceBuffer := fs.Int("trace-buffer", 0, "traces retained for /debug/traces; 0 = default, negative disables")
	slowTrace := fs.Duration("slow-trace", 0, "latency past which a trace is retained with bias and a CPU profile may fire; 0 = default")
	profileDir := fs.String("profile-dir", "", "directory for automatic slow-trace CPU profiles (empty disables)")
	auditDir := fs.String("audit-dir", "", "verdict audit trail directory: one NDJSON line per verdict (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.DefaultLogger().SetLevel(lvl)

	s, err := serve.New(serve.Config{
		ModelPath: *model,
		Scan: scan.Config{
			Workers:     *workers,
			Timeout:     *timeout,
			MaxBytes:    *maxBytes,
			CacheSize:   *cacheSize,
			Triage:      triage.Config{Threshold: *triageThreshold},
			Deobfuscate: deobfuscate.Config{Enabled: *deob},
		},
		MaxBody:          *maxBody,
		MaxBatch:         *maxBatch,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		RatePerSec:       *rate,
		Burst:            *burst,
		MaxJobs:          *maxJobs,
		JobWorkers:       *jobWorkers,
		JobTTL:           *jobTTL,
		DrainTimeout:     *drainTimeout,
		QueueDir:         *queueDir,
		QueueLease:       *queueLease,
		QueueMaxAttempts: *queueAttempts,
		TraceBuffer:      *traceBuffer,
		SlowTrace:        *slowTrace,
		ProfileDir:       *profileDir,
		AuditDir:         *auditDir,
		RulesDir:         *rulesDir,
		AlertWebhook:     *alertWebhook,
	}, obs.Default())
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
		// Remove on every exit path so repeated smoke runs never read a
		// stale address from a previous process.
		defer os.Remove(*readyFile)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// SIGHUP hot-reloads the model — and, when -rules-dir is set, the rule
	// set — without dropping traffic. The two reloads are independent: a
	// broken rule directory keeps the old rules (and the fresh model), and
	// vice versa.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			v, err := s.Reload("")
			if err != nil {
				obs.DefaultLogger().Event(nil, obs.LevelError, "serve.reload",
					"trigger", "sighup", "error", err.Error())
			} else {
				obs.DefaultLogger().Event(nil, obs.LevelInfo, "serve.reload",
					"trigger", "sighup", "model", v.ModelPath, "sha256", v.SHA256)
			}
			if *rulesDir != "" {
				info, err := s.ReloadRules()
				if err != nil {
					obs.DefaultLogger().Event(nil, obs.LevelError, "serve.reload_rules",
						"trigger", "sighup", "error", err.Error())
					continue
				}
				obs.DefaultLogger().Event(nil, obs.LevelInfo, "serve.reload_rules",
					"trigger", "sighup", "dir", info.Dir, "rules", info.Rules, "gen", info.Gen)
			}
		}
	}()

	srv := &http.Server{Handler: requestLog(s.Handler())}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "jsrevealer: serving on http://%s (/metrics /healthz /detect /scan /jobs /version /admin/reload /admin/reload-rules /debug/pprof/)\n", ln.Addr())
	obs.DefaultLogger().Event(ctx, obs.LevelInfo, "serve.listening",
		"addr", ln.Addr().String(), "model", *model)

	select {
	case <-ctx.Done():
		obs.DefaultLogger().Event(nil, obs.LevelInfo, "serve.shutdown",
			"reason", "signal", "drain_timeout", drainTimeout.String())
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop admitting (healthz flips to draining) and let accepted async
		// jobs finish, then close the listener and wait for in-flight
		// requests — both bounded by the same drain budget.
		if err := s.Drain(shutCtx); err != nil {
			obs.DefaultLogger().Event(nil, obs.LevelWarn, "serve.drain",
				"error", err.Error())
		}
		return srv.Shutdown(shutCtx)
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}

// requestLog wraps h with structured access logging. It deliberately opens
// no span: serve's own tracing middleware owns the root span per endpoint,
// and a span here would shadow an incoming traceparent (a local parent
// always beats a remote context), cutting caller traces off from the
// server's spans.
func requestLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		obs.DefaultLogger().Event(r.Context(), obs.LevelDebug, "http.request",
			"method", r.Method, "path", r.URL.Path, "elapsed", time.Since(start))
	})
}
