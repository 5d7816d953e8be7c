package serve

import (
	"jsrevealer/internal/obs"
)

// Metric families emitted by the serving subsystem, all on the registry the
// server exposes at /metrics alongside the scan and stage families.
const (
	// QueueDepthMetric gauges requests currently waiting for an admission
	// slot — the serving layer's backpressure signal.
	QueueDepthMetric = "jsrevealer_serve_queue_depth"
	// QueueWaitMetric is the time an admitted request spent waiting in the
	// admission queue before a concurrency slot freed up.
	QueueWaitMetric = "jsrevealer_serve_queue_wait_seconds"
	// AdmissionRejectsMetric counts requests turned away before any work
	// was done, by reason
	// (queue_full|rate_limited|draining|no_model|backlog).
	AdmissionRejectsMetric = "jsrevealer_serve_admission_rejects_total"
	// RequestDurationMetric is the per-endpoint request latency histogram,
	// admission wait included.
	RequestDurationMetric = "jsrevealer_serve_request_duration_seconds"
	// ReloadsMetric counts model reload attempts by result (ok|error); the
	// initial load at startup counts as one ok.
	ReloadsMetric = "jsrevealer_serve_reloads_total"
	// JobsMetric counts async jobs by lifecycle event
	// (submitted|done|failed).
	JobsMetric = "jsrevealer_serve_jobs_total"
	// JobsInflightMetric gauges jobs this process's workers are running;
	// the queued backlog is jsrevealer_queue_depth.
	JobsInflightMetric = "jsrevealer_serve_jobs_inflight"
)

// Endpoints instrumented with per-endpoint latency series; pre-registered
// so the full surface is visible before the first request.
var endpoints = []string{"/detect", "/scan", "/jobs", "/admin/reload", "/admin/reload-rules"}

// rejectReasons is the closed label set of AdmissionRejectsMetric.
var rejectReasons = []string{"queue_full", "rate_limited", "draining", "no_model", "backlog"}

// jobEvents is the closed label set of JobsMetric.
var jobEvents = []string{"submitted", "done", "failed"}

// RegisterMetrics pre-creates every serve metric series in reg (all label
// values, zero-valued), so /metrics shows the full surface before traffic.
func RegisterMetrics(reg *obs.Registry) {
	newMetrics(reg)
}

// metrics caches the subsystem's instrument pointers so hot paths pay
// pointer derefs, not registry lookups.
type metrics struct {
	queueDepth  *obs.Gauge
	queueWait   *obs.Histogram
	rejects     map[string]*obs.Counter
	latency     map[string]*obs.Histogram
	reloadOK    *obs.Counter
	reloadErr   *obs.Counter
	jobs        map[string]*obs.Counter
	jobInflight *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		queueDepth: reg.Gauge(QueueDepthMetric,
			"Requests waiting for an admission slot.", nil),
		queueWait: reg.Histogram(QueueWaitMetric,
			"Seconds an admitted request waited for a concurrency slot.",
			obs.DefDurationBuckets, nil),
		rejects: make(map[string]*obs.Counter, len(rejectReasons)),
		latency: make(map[string]*obs.Histogram, len(endpoints)),
		reloadOK: reg.Counter(ReloadsMetric,
			"Model reload attempts by result.", obs.Labels{"result": "ok"}),
		reloadErr: reg.Counter(ReloadsMetric,
			"Model reload attempts by result.", obs.Labels{"result": "error"}),
		jobs: make(map[string]*obs.Counter, len(jobEvents)),
		jobInflight: reg.Gauge(JobsInflightMetric,
			"Async jobs running on this process's workers.", nil),
	}
	for _, reason := range rejectReasons {
		m.rejects[reason] = reg.Counter(AdmissionRejectsMetric,
			"Requests rejected before any work was done, by reason.",
			obs.Labels{"reason": reason})
	}
	for _, ep := range endpoints {
		m.latency[ep] = reg.Histogram(RequestDurationMetric,
			"Per-endpoint request latency in seconds, admission wait included.",
			obs.DefDurationBuckets, obs.Labels{"endpoint": ep})
	}
	for _, ev := range jobEvents {
		m.jobs[ev] = reg.Counter(JobsMetric,
			"Async jobs by lifecycle event.", obs.Labels{"event": ev})
	}
	return m
}
