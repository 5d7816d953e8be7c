package queue

import "jsrevealer/internal/obs"

// Metric families emitted by the job queue, exposed on the same
// registry (and therefore the same /metrics surface) as the scan engine
// and serving subsystem.
const (
	// DepthMetric gauges the job backlog: jobs pending (eligible or in
	// backoff) plus leased — the bound serve's job submission turns into
	// 429s.
	DepthMetric = "jsrevealer_queue_depth"
	// EnqueuedMetric counts jobs accepted onto the queue.
	EnqueuedMetric = "jsrevealer_queue_enqueued_total"
	// RetriesMetric counts deliveries rescheduled after a failure or an
	// interrupted run (Nack, lease expiry, crash recovery).
	RetriesMetric = "jsrevealer_queue_retries_total"
	// LeaseExpiredMetric counts leases the reaper reclaimed because the
	// worker missed its heartbeat window.
	LeaseExpiredMetric = "jsrevealer_queue_lease_expired_total"
	// DeadLetterMetric counts jobs parked in the dead-letter state after
	// exhausting their delivery budget.
	DeadLetterMetric = "jsrevealer_queue_dead_letter_total"
	// RecoveredMetric counts jobs restored to a runnable state by
	// recovery-on-open after a crash or restart.
	RecoveredMetric = "jsrevealer_queue_recovered_total"
)

// RegisterMetrics pre-creates the queue's metric families in reg
// (zero-valued), so /metrics shows the full surface before any job flows.
func RegisterMetrics(reg *obs.Registry) {
	newMetrics(reg)
}

// metrics caches the queue's instrument pointers; transitions on the hot
// path pay pointer derefs, not registry lookups.
type metrics struct {
	depth        *obs.Gauge
	enqueued     *obs.Counter
	retries      *obs.Counter
	leaseExpired *obs.Counter
	deadLetter   *obs.Counter
	recovered    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		depth: reg.Gauge(DepthMetric,
			"Queued jobs not yet finished: pending, delayed, or leased.", nil),
		enqueued: reg.Counter(EnqueuedMetric,
			"Jobs accepted onto the job queue.", nil),
		retries: reg.Counter(RetriesMetric,
			"Deliveries rescheduled after a failure or interruption.", nil),
		leaseExpired: reg.Counter(LeaseExpiredMetric,
			"Leases reclaimed by the reaper after missed heartbeats.", nil),
		deadLetter: reg.Counter(DeadLetterMetric,
			"Jobs dead-lettered after exhausting their delivery budget.", nil),
		recovered: reg.Counter(RecoveredMetric,
			"Jobs restored to a runnable state by recovery-on-open.", nil),
	}
}
