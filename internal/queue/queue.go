// Package queue is the serve subsystem's job queue: a file-backed,
// crash-safe durable queue that survives kill -9 without losing accepted
// work or finished results, or — opened with an empty directory — the same
// lease state machine held in memory only.
//
// Design, in one paragraph: every state transition (enqueue, lease, lease
// extension, ack, retry, dead-letter, removal) is appended to a write-ahead
// log of checksummed records before it takes effect in memory, segments
// rotate at a size threshold, and compaction periodically folds the live
// state into a snapshot segment (a reset marker plus one restore record per
// job) so the log never grows without bound. Opening a queue replays the
// segments in order, truncating torn or corrupt tails instead of failing —
// a process killed mid-append recovers everything up to its last complete
// record. A memory-only queue skips the log entirely: every transition
// takes effect in memory alone and nothing survives the process.
//
// Delivery semantics: jobs are delivered at-least-once under worker leases.
// Next hands a worker the highest-priority eligible job together with a
// lease token; the worker renews the lease via Heartbeat while it runs and
// commits the outcome with Ack or Nack. A lease that expires (worker hung,
// crashed, or partitioned) is reclaimed by the reaper goroutine and the job
// is rescheduled with capped exponential backoff + full jitter
// (internal/retry); after MaxAttempts failed deliveries the job moves to
// the dead-letter state instead of looping forever. Lease tokens fence
// stale workers: an Ack or Nack quoting a superseded token is rejected, so
// a reclaimed job can never have its result committed twice.
package queue

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"jsrevealer/internal/obs"
	"jsrevealer/internal/retry"
)

// State is one job's position in the lease state machine:
//
//	pending --Next--> leased --Ack-->  done  --TTL--> removed
//	   ^                |
//	   |   Nack/expiry, attempts left
//	   +----------------+
//	                    | Nack/expiry, budget exhausted
//	                    +--> dead --TTL--> removed
type State string

// The job states. Pending jobs may carry a NotBefore time (retry backoff)
// delaying their next delivery.
const (
	// StatePending: waiting for a worker (possibly delayed by backoff).
	StatePending State = "pending"
	// StateLeased: a worker holds the job under a live lease.
	StateLeased State = "leased"
	// StateDone: finished successfully; Result holds the outcome.
	StateDone State = "done"
	// StateDead: failed MaxAttempts deliveries; parked for inspection.
	StateDead State = "dead"
)

// Queue API errors.
var (
	// ErrClosed: the queue has been closed (or abandoned by a crash test).
	ErrClosed = errors.New("queue: closed")
	// ErrExists: Enqueue with an id already present.
	ErrExists = errors.New("queue: job id already exists")
	// ErrNotFound: the job id is unknown.
	ErrNotFound = errors.New("queue: job not found")
	// ErrLeaseLost: the caller's lease token is stale — the lease expired
	// and the job was reclaimed (and possibly re-leased elsewhere).
	ErrLeaseLost = errors.New("queue: lease lost")
	// ErrFull: EnqueueBounded found the unfinished-job bound reached.
	ErrFull = errors.New("queue: backlog full")
	// ErrTooLarge: the payload does not fit one WAL record. A memory-only
	// queue has no records and takes payloads of any size.
	ErrTooLarge = fmt.Errorf("queue: payload exceeds %d bytes", maxRecordBytes/2)
)

// Job is one queued unit of work. Payload and Result are opaque to the
// queue. Values returned by the API are snapshots; mutating them does not
// affect queue state.
type Job struct {
	// ID is the caller-chosen unique id.
	ID string
	// Priority orders delivery: higher first, FIFO within a priority.
	Priority int
	// Payload is the opaque work description.
	Payload []byte
	// Trace is the W3C traceparent of the request that enqueued the job,
	// persisted so a worker — even one started after a crash — can join
	// its spans to the submitter's trace. Empty when tracing is off.
	Trace string
	// Attempt counts failed deliveries so far.
	Attempt int
	// State is the job's current lifecycle state.
	State State
	// EnqueuedAt is the original submission time.
	EnqueuedAt time.Time
	// NotBefore delays a pending job's next delivery (retry backoff).
	NotBefore time.Time
	// LeaseExpiry is when the current lease lapses (leased jobs).
	LeaseExpiry time.Time
	// Owner identifies the current or last lease holder.
	Owner string
	// Result is the outcome committed by Ack (done jobs).
	Result []byte
	// LastErr is the most recent failure reason (retrying and dead jobs).
	LastErr string
	// StartedAt is when the latest delivery was leased; zero until the
	// first lease.
	StartedAt time.Time
	// DoneAt is when the job reached done or dead.
	DoneAt time.Time

	seq     uint64 // FIFO tiebreak within a priority
	token   string // current lease fencing token
	readyIx int    // index in the ready heap, -1 when absent
	delayIx int    // index in the delayed heap, -1 when absent
}

// snapshot returns a caller-safe copy.
func (j *Job) snapshot() Job {
	c := *j
	c.token = ""
	return c
}

// Lease is one delivery of a job to a worker: the job snapshot plus the
// fencing token the worker must present to Heartbeat, Ack, or Nack.
type Lease struct {
	// Job is the delivered job as of lease time.
	Job Job
	// Expiry is when the lease lapses unless renewed.
	Expiry time.Time

	q     *Queue
	token string
}

// Options tunes a queue. The zero value is production-ready: 4MiB
// segments, 5 delivery attempts, 30s leases, 1s reaping, 10min result
// retention, fsync on every record.
type Options struct {
	// SegmentBytes rotates the active WAL segment beyond this size;
	// <= 0 means 4MiB.
	SegmentBytes int64
	// MaxAttempts is the delivery budget before dead-letter; <= 0 means 5.
	MaxAttempts int
	// LeaseDuration is how long one delivery may run between heartbeats;
	// <= 0 means 30s.
	LeaseDuration time.Duration
	// Backoff schedules retries; the zero value is retry's default policy
	// (100ms base, 30s cap, factor 2, full jitter).
	Backoff retry.Policy
	// ReapInterval is the reaper's scan period; <= 0 means 1s.
	ReapInterval time.Duration
	// ResultTTL is how long done and dead jobs stay queryable before
	// removal; <= 0 means 10min.
	ResultTTL time.Duration
	// NoSync disables per-record fsync. Only tests should set this: it
	// trades crash durability for speed.
	NoSync bool
	// Registry receives the jsrevealer_queue_* metrics; nil means
	// obs.Default().
	Registry *obs.Registry

	now func() time.Time // test clock; nil means time.Now
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.LeaseDuration <= 0 {
		o.LeaseDuration = 30 * time.Second
	}
	if o.ReapInterval <= 0 {
		o.ReapInterval = time.Second
	}
	if o.ResultTTL <= 0 {
		o.ResultTTL = 10 * time.Minute
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// tombstoneCap bounds the remembered-removal set: enough to answer "did
// this job exist?" for every id a polling client could plausibly still
// hold, without growing forever.
const tombstoneCap = 4096

// Queue is a job queue over one directory, or memory-only when the
// directory is empty. All methods are safe for concurrent use. Open one
// Queue per directory per process; the WAL is not a multi-process
// coordination protocol.
type Queue struct {
	dir  string // "" for a memory-only queue
	opts Options
	met  *metrics

	mu      sync.Mutex
	jobs    map[string]*Job
	ready   readyHeap
	delayed delayHeap
	seg     *segment // nil for a memory-only queue
	nextSeq uint64   // in-memory FIFO sequence
	leased  int      // jobs in StateLeased, so Depth costs O(1)
	closed  bool

	// tombstones remember removed job ids (bounded FIFO) so callers can
	// distinguish "expired" from "never existed".
	gone      map[string]struct{}
	goneOrder []string

	notify  chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup
}

// Open opens (creating if needed) the durable queue in dir, replaying the
// WAL: torn tails are truncated, leased jobs from a crashed process are
// rescheduled (their interrupted delivery counts against the retry
// budget), and expired results are dropped. An empty dir opens a fresh
// memory-only queue that touches no file. The returned queue runs a
// reaper goroutine until Close.
func Open(dir string, opts Options) (*Queue, error) {
	opts = opts.withDefaults()
	q := &Queue{
		dir:     dir,
		opts:    opts,
		met:     newMetrics(opts.Registry),
		jobs:    make(map[string]*Job),
		gone:    make(map[string]struct{}),
		notify:  make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("queue: create dir: %w", err)
		}
		seqs, err := listSegments(dir)
		if err != nil {
			return nil, fmt.Errorf("queue: list segments: %w", err)
		}
		rep, err := replay(dir, seqs)
		if err != nil {
			return nil, err
		}
		q.jobs = rep.jobs
		q.seg, err = openSegment(dir, rep.nextSeq, !opts.NoSync)
		if err != nil {
			return nil, fmt.Errorf("queue: open segment: %w", err)
		}
		q.recover(rep)
	}
	q.met.depth.Set(float64(q.depthLocked()))
	q.wg.Add(1)
	go q.reapLoop()
	return q, nil
}

// recover finishes Open: index the replayed jobs into the heaps, reschedule
// orphaned leases, and drop expired results. Runs before the queue is
// shared, so no locking.
func (q *Queue) recover(rep *replayResult) {
	now := q.opts.now()
	for _, id := range rep.order {
		j, ok := q.jobs[id]
		if !ok {
			// The job was removed by a later event; its order entry is stale.
			continue
		}
		j.seq = q.nextSeq
		q.nextSeq++
		j.readyIx, j.delayIx = -1, -1
		switch j.State {
		case StateLeased:
			// The lease holder died with the process. Count the
			// interrupted delivery against the budget — a job that crashes
			// its worker every time must land in dead-letter, not
			// crash-loop forever — and reschedule immediately: the backoff
			// already happened (the process was down). The replayed lease
			// is counted first so failLocked can release it.
			q.leased++
			q.failLocked(j, now, "lease holder crashed", false)
			if j.State != StateDead {
				q.met.recovered.Inc()
			}
		case StatePending:
			q.scheduleLocked(j, now)
			q.met.recovered.Inc()
		case StateDone, StateDead:
			if !j.DoneAt.IsZero() && now.Sub(j.DoneAt) > q.opts.ResultTTL {
				q.removeLocked(j)
			}
		}
	}
}

// Close stops the reaper and closes the WAL. Blocked Next callers return
// ErrClosed. Pending and leased state stays on disk for the next Open (a
// memory-only queue's dies with it).
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	close(q.closeCh)
	var err error
	if q.seg != nil {
		err = q.seg.close()
	}
	q.mu.Unlock()
	q.wg.Wait()
	return err
}

// Abandon simulates a process crash for fault-injection tests: the queue
// stops accepting operations and the reaper exits, but nothing is flushed
// or cleaned up — on-disk state is exactly what the synchronous appends
// already made durable. The directory can be re-Opened as if the process
// had been kill -9'd.
func (q *Queue) Abandon() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.closeCh)
	}
	q.mu.Unlock()
	q.wg.Wait()
}

// Enqueue appends a new pending job. The id must be unique for the life of
// the queue directory; higher priorities deliver first.
func (q *Queue) Enqueue(id string, priority int, payload []byte) error {
	return q.EnqueueTrace(id, priority, payload, "")
}

// EnqueueTrace is Enqueue with the submitter's trace context (a W3C
// traceparent header value) persisted alongside the job, so spans emitted
// by whichever worker eventually runs it — on this process or a restarted
// one — join the original trace.
func (q *Queue) EnqueueTrace(id string, priority int, payload []byte, trace string) error {
	return q.EnqueueBounded(0, id, priority, payload, trace)
}

// EnqueueBounded is EnqueueTrace that refuses the job with ErrFull when max
// > 0 and Depth() is already at max. The check and the insert happen under
// one lock, so concurrent producers can never overshoot the bound.
func (q *Queue) EnqueueBounded(max int, id string, priority int, payload []byte, trace string) error {
	if id == "" {
		return errors.New("queue: empty job id")
	}
	if q.dir != "" && len(payload) > maxRecordBytes/2 {
		return ErrTooLarge
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if _, ok := q.jobs[id]; ok {
		return ErrExists
	}
	if max > 0 && q.depthLocked() >= max {
		return ErrFull
	}
	now := q.opts.now()
	if err := q.appendLocked(walEvent{
		Op: opEnqueue, ID: id, Priority: priority, Payload: payload, Trace: trace, At: now.UnixNano(),
	}); err != nil {
		return err
	}
	j := &Job{
		ID:         id,
		Priority:   priority,
		Payload:    payload,
		Trace:      trace,
		State:      StatePending,
		EnqueuedAt: now,
		seq:        q.nextSeq,
		readyIx:    -1,
		delayIx:    -1,
	}
	q.nextSeq++
	q.jobs[id] = j
	q.scheduleLocked(j, now)
	q.met.enqueued.Inc()
	q.met.depth.Set(float64(q.depthLocked()))
	q.signalLocked()
	return nil
}

// Next blocks until an eligible job can be leased to owner (or ctx ends,
// or the queue closes) and delivers it under a fresh lease.
func (q *Queue) Next(ctx context.Context, owner string) (*Lease, error) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		now := q.opts.now()
		q.promoteLocked(now)
		if j := q.popReadyLocked(); j != nil {
			l, err := q.leaseLocked(j, owner, now)
			// More work may be eligible; chain the wakeup to the next waiter.
			if q.ready.Len() > 0 {
				q.signalLocked()
			}
			q.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return l, nil
		}
		var timerC <-chan time.Time
		var timer *time.Timer
		if q.delayed.Len() > 0 {
			d := q.delayed[0].NotBefore.Sub(now)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return nil, ctx.Err()
		case <-q.closeCh:
			if timer != nil {
				timer.Stop()
			}
			return nil, ErrClosed
		case <-q.notify:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// TryNext is the non-blocking Next: it returns (nil, nil) when no job is
// eligible right now.
func (q *Queue) TryNext(owner string) (*Lease, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	now := q.opts.now()
	q.promoteLocked(now)
	j := q.popReadyLocked()
	if j == nil {
		return nil, nil
	}
	return q.leaseLocked(j, owner, now)
}

// leaseLocked turns a popped pending job into a live lease.
func (q *Queue) leaseLocked(j *Job, owner string, now time.Time) (*Lease, error) {
	expiry := now.Add(q.opts.LeaseDuration)
	if err := q.appendLocked(walEvent{
		Op: opLease, ID: j.ID, Owner: owner, At: now.UnixNano(), Deadline: expiry.UnixNano(),
	}); err != nil {
		// The lease never became durable; put the job back.
		q.scheduleLocked(j, now)
		return nil, err
	}
	j.State = StateLeased
	q.leased++
	j.Owner = owner
	j.StartedAt = now
	j.LeaseExpiry = expiry
	j.token = newToken()
	return &Lease{Job: j.snapshot(), Expiry: expiry, q: q, token: j.token}, nil
}

// Heartbeat renews the lease for another LeaseDuration. ErrLeaseLost means
// the lease already expired and the job was reclaimed — the worker should
// abandon the attempt.
func (l *Lease) Heartbeat() error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, err := q.heldLocked(l)
	if err != nil {
		return err
	}
	now := q.opts.now()
	expiry := now.Add(q.opts.LeaseDuration)
	if err := q.appendLocked(walEvent{
		Op: opExtend, ID: j.ID, At: now.UnixNano(), Deadline: expiry.UnixNano(),
	}); err != nil {
		return err
	}
	j.LeaseExpiry = expiry
	l.Expiry = expiry
	return nil
}

// Ack commits the job as done with result. A stale lease gets
// ErrLeaseLost and commits nothing — the fencing that prevents duplicate
// results when a slow worker loses its lease to the reaper.
func (l *Lease) Ack(result []byte) error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, err := q.heldLocked(l)
	if err != nil {
		return err
	}
	now := q.opts.now()
	if err := q.appendLocked(walEvent{
		Op: opAck, ID: j.ID, Result: result, At: now.UnixNano(),
	}); err != nil {
		return err
	}
	j.State = StateDone
	q.leased--
	j.Result = result
	// The work description is dead weight once the outcome is committed;
	// dropping it keeps memory and compaction snapshots proportional to
	// results, not submissions. (Dead jobs keep theirs for inspection.)
	j.Payload = nil
	j.DoneAt = now
	j.Owner = ""
	j.LeaseExpiry = zeroTime
	j.token = ""
	q.met.depth.Set(float64(q.depthLocked()))
	return nil
}

// Nack reports a failed delivery: the job is rescheduled with backoff, or
// dead-lettered once its attempt budget is spent.
func (l *Lease) Nack(reason string) error {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, err := q.heldLocked(l)
	if err != nil {
		return err
	}
	q.failLocked(j, q.opts.now(), reason, true)
	q.met.depth.Set(float64(q.depthLocked()))
	q.signalLocked()
	return nil
}

// heldLocked resolves a lease to its job, verifying the fencing token.
func (q *Queue) heldLocked(l *Lease) (*Job, error) {
	j, ok := q.jobs[l.Job.ID]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State != StateLeased || l.token == "" || j.token != l.token {
		return nil, ErrLeaseLost
	}
	return j, nil
}

// failLocked applies one failed delivery to the leased job j: retry with
// backoff while attempts remain, dead-letter otherwise. backoff=false
// reschedules immediately (crash recovery — the downtime was the backoff).
func (q *Queue) failLocked(j *Job, now time.Time, reason string, backoff bool) {
	j.Attempt++
	j.token = ""
	q.leased--
	if j.Attempt >= q.opts.MaxAttempts {
		// Budget exhausted: dead-letter. WAL first, memory second.
		q.appendLocked(walEvent{
			Op: opDead, ID: j.ID, Attempt: j.Attempt, Err: reason, At: now.UnixNano(),
		})
		j.State = StateDead
		j.LastErr = reason
		j.DoneAt = now
		j.Owner = ""
		j.LeaseExpiry = zeroTime
		q.met.deadLetter.Inc()
		return
	}
	notBefore := now
	if backoff {
		notBefore = now.Add(q.opts.Backoff.Delay(j.Attempt - 1))
	}
	q.appendLocked(walEvent{
		Op: opRetry, ID: j.ID, Attempt: j.Attempt, Err: reason,
		At: now.UnixNano(), Deadline: notBefore.UnixNano(),
	})
	j.State = StatePending
	j.NotBefore = notBefore
	j.LastErr = reason
	j.Owner = ""
	j.LeaseExpiry = zeroTime
	q.scheduleLocked(j, now)
	q.met.retries.Inc()
}

// Get returns a snapshot of the job, or ErrNotFound.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Forgotten reports whether id was a real job that has since been removed
// (result TTL expiry) — the signal behind HTTP 410 Gone as opposed to 404.
func (q *Queue) Forgotten(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.gone[id]
	return ok
}

// Depth returns the number of jobs not yet finished (pending, delayed, or
// leased) — the backlog bound serve's job submission checks.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// Stats is a point-in-time census of the queue.
type Stats struct {
	// Pending counts jobs eligible now or delayed by backoff.
	Pending int
	// Leased counts jobs under a live worker lease.
	Leased int
	// Done counts finished jobs still within the result TTL.
	Done int
	// Dead counts dead-lettered jobs still within the result TTL.
	Dead int
	// WALBytes is the current on-disk size of all segments (0 for a
	// memory-only queue).
	WALBytes int64
}

// Stats counts jobs by state.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	var st Stats
	for _, j := range q.jobs {
		switch j.State {
		case StatePending:
			st.Pending++
		case StateLeased:
			st.Leased++
		case StateDone:
			st.Done++
		case StateDead:
			st.Dead++
		}
	}
	if q.seg != nil {
		st.WALBytes = totalSegmentBytes(q.dir)
	}
	return st
}

// depthLocked is pending + delayed + leased.
func (q *Queue) depthLocked() int {
	return q.ready.Len() + q.delayed.Len() + q.leased
}

// scheduleLocked indexes a pending job into the ready or delayed heap.
func (q *Queue) scheduleLocked(j *Job, now time.Time) {
	if !j.NotBefore.IsZero() && j.NotBefore.After(now) {
		q.delayed.push(j)
		return
	}
	q.ready.push(j)
}

// promoteLocked moves delayed jobs whose backoff has elapsed into the
// ready heap.
func (q *Queue) promoteLocked(now time.Time) {
	for q.delayed.Len() > 0 && !q.delayed[0].NotBefore.After(now) {
		q.ready.push(q.delayed.pop())
	}
}

// popReadyLocked takes the highest-priority eligible job, or nil.
func (q *Queue) popReadyLocked() *Job {
	if q.ready.Len() == 0 {
		return nil
	}
	return q.ready.pop()
}

// removeLocked drops a finished job from the index, leaving a bounded
// tombstone so later polls can tell "expired" from "never existed".
func (q *Queue) removeLocked(j *Job) {
	delete(q.jobs, j.ID)
	if _, dup := q.gone[j.ID]; !dup {
		q.gone[j.ID] = struct{}{}
		q.goneOrder = append(q.goneOrder, j.ID)
		for len(q.goneOrder) > tombstoneCap {
			delete(q.gone, q.goneOrder[0])
			q.goneOrder = q.goneOrder[1:]
		}
	}
}

// appendLocked writes one event to the active segment, rotating past the
// size threshold. A memory-only queue has no segment and logs nothing.
func (q *Queue) appendLocked(ev walEvent) error {
	if q.seg == nil {
		return nil
	}
	if err := q.seg.append(ev); err != nil {
		return err
	}
	if q.seg.size >= q.opts.SegmentBytes {
		if err := q.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (q *Queue) rotateLocked() error {
	next := q.seg.seq + 1
	if err := q.seg.close(); err != nil {
		return err
	}
	seg, err := openSegment(q.dir, next, !q.opts.NoSync)
	if err != nil {
		return err
	}
	q.seg = seg
	if !q.opts.NoSync {
		syncDir(q.dir)
	}
	return nil
}

// signalLocked wakes one blocked Next waiter.
func (q *Queue) signalLocked() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// newToken returns a random lease fencing token.
func newToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
