package serve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/queue"
	"jsrevealer/internal/scan"
)

// This file is the async job path. POST /jobs enqueues a batch on the
// internal/queue job queue — memory-only by default, WAL-backed with
// Config.QueueDir — and workers lease jobs with heartbeat renewal and
// commit their verdicts back through the queue. In durable mode a kill -9
// mid-batch plus a restart resumes accepted jobs and keeps
// already-committed verdicts, with lease fencing guaranteeing no duplicate
// emission.

// JobState is the lifecycle of one async scan job.
type JobState string

const (
	// JobQueued: accepted, waiting for a job worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is scanning the job's scripts.
	JobRunning JobState = "running"
	// JobDone: every script has a verdict; results are available.
	JobDone JobState = "done"
	// JobFailed: the job exhausted its delivery attempts (e.g. no model was
	// loaded, or its payload could not be decoded).
	JobFailed JobState = "failed"
)

// JobView is the GET /jobs/{id} payload: a consistent snapshot of the job.
type JobView struct {
	ID          string        `json:"id"`
	State       JobState      `json:"state"`
	Scripts     int           `json:"scripts"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Results     []verdictLine `json:"results,omitempty"`
	Error       string        `json:"error,omitempty"`
	// Attempt counts deliveries that failed or were cut short by a crash.
	Attempt int `json:"attempt,omitempty"`
}

// newJobID returns a 16-hex-char random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to a
		// time-derived id rather than refusing service.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// durable reports whether jobs persist in a WAL (Config.QueueDir set).
func (s *Server) durable() bool { return s.cfg.QueueDir != "" }

// progressTable exposes the verdicts of running jobs to polls.
type progressTable struct {
	mu sync.Mutex
	m  map[string][]verdictLine
}

func (p *progressTable) add(id string, line verdictLine) {
	p.mu.Lock()
	p.m[id] = append(p.m[id], line)
	p.mu.Unlock()
}

func (p *progressTable) snapshot(id string) []verdictLine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]verdictLine(nil), p.m[id]...)
}

// take returns the job's accumulated verdicts and forgets them.
func (p *progressTable) take(id string) []verdictLine {
	p.mu.Lock()
	defer p.mu.Unlock()
	lines := p.m[id]
	delete(p.m, id)
	return lines
}

// payloadV1 opens a job payload in the batch codec: the tag byte, a uvarint
// script count, then per script a uvarint-length-prefixed name and source.
// Sources travel as raw bytes — no escaping, no UTF-8 coercion — so a job
// scans exactly the bytes /scan would, and the payload is never larger than
// the batch plus a few bytes per script. No JSON text starts with this byte,
// which keeps payloads written as JSON record arrays by earlier releases
// decodable.
const payloadV1 = 0x01

// encodeBatch renders srcs as a job payload.
func encodeBatch(srcs []scan.Source) []byte {
	n := 1 + binary.MaxVarintLen64
	for _, src := range srcs {
		n += len(src.Name) + len(src.Content) + 2*binary.MaxVarintLen64
	}
	p := append(make([]byte, 0, n), payloadV1)
	p = binary.AppendUvarint(p, uint64(len(srcs)))
	for _, src := range srcs {
		p = binary.AppendUvarint(p, uint64(len(src.Name)))
		p = append(p, src.Name...)
		p = binary.AppendUvarint(p, uint64(len(src.Content)))
		p = append(p, src.Content...)
	}
	return p
}

// decodeBatch is encodeBatch's inverse; it also reads the JSON record
// arrays earlier releases wrote.
func decodeBatch(p []byte) ([]scan.Source, error) {
	if len(p) == 0 || p[0] != payloadV1 {
		var recs []record
		if err := json.Unmarshal(p, &recs); err != nil {
			return nil, err
		}
		srcs := make([]scan.Source, len(recs))
		for i, r := range recs {
			srcs[i] = scan.Source{Name: r.Name, Content: r.Source}
		}
		return srcs, nil
	}
	p = p[1:]
	next := func() (string, error) {
		n, k := binary.Uvarint(p)
		if k <= 0 || n > uint64(len(p)-k) {
			return "", errors.New("truncated batch payload")
		}
		f := string(p[k : k+int(n)])
		p = p[k+int(n):]
		return f, nil
	}
	count, k := binary.Uvarint(p)
	// Every script takes at least two bytes, which bounds a corrupt count.
	if k <= 0 || count > uint64(len(p)-k)/2 {
		return nil, errors.New("bad batch payload header")
	}
	p = p[k:]
	srcs := make([]scan.Source, count)
	for i := range srcs {
		var err error
		if srcs[i].Name, err = next(); err != nil {
			return nil, err
		}
		if srcs[i].Content, err = next(); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, errors.New("trailing bytes after batch payload")
	}
	return srcs, nil
}

// batchLen is the script count of a job payload, read without copying a
// script.
func batchLen(p []byte) int {
	if len(p) > 0 && p[0] == payloadV1 {
		n, _ := binary.Uvarint(p[1:])
		return int(n)
	}
	var items []struct{}
	json.Unmarshal(p, &items)
	return len(items)
}

// handleJobSubmit accepts a batch for asynchronous execution: the request
// returns 202 with a job id at once, and GET /jobs/{id} polls it to
// completion — the shape crawler-scale submitters need when a batch is too
// big to hold a connection open for. Past MaxJobs unfinished jobs (pending
// plus leased) it sheds the submission with 429, before reading the body
// and again, atomically, at enqueue.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.q.Depth() >= s.cfg.MaxJobs {
		s.reject(w, r, "backlog", http.StatusTooManyRequests, 2, "job backlog full")
		return
	}
	prio := 0
	if q := r.URL.Query().Get("priority"); q != "" {
		p, err := strconv.Atoi(q)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "priority must be an integer")
			return
		}
		prio = p
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
	payload := encodeBatch(srcs)
	id := newJobID()
	trace := ""
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		// The traceparent rides the job record: the worker's spans, which
		// run after this response is gone (in durable mode possibly on a
		// restarted process), join this request's trace.
		trace = sp.Context().Traceparent()
	}
	switch err := s.q.EnqueueBounded(s.cfg.MaxJobs, id, prio, payload, trace); {
	case err == nil:
	case errors.Is(err, queue.ErrFull):
		s.reject(w, r, "backlog", http.StatusTooManyRequests, 2, "job backlog full")
		return
	case errors.Is(err, queue.ErrTooLarge):
		writeJSONError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	default:
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.met.jobs["submitted"].Inc()
	body := map[string]any{
		"id":      id,
		"state":   JobQueued,
		"scripts": len(srcs),
	}
	if s.durable() {
		body["durable"] = true
	}
	writeJSON(w, http.StatusAccepted, body)
}

// handleJobGet polls one job: 404 for ids that never existed, 410 Gone
// with a JSON reason for ids whose results the result TTL removed — so
// clients can tell "poll sooner next time" from "you never had this job" —
// and the job view otherwise.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.q.Get(id)
	if err != nil {
		if s.q.Forgotten(id) {
			s.writeJSONGone(w, r, id)
			return
		}
		writeJSONError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobView(j, s.progress.snapshot(id)))
}

// writeJSONGone answers a poll for a job whose results expired — 410 Gone,
// with the reason in the body and an audit line recording that results
// were lost to retention.
func (s *Server) writeJSONGone(w http.ResponseWriter, r *http.Request, id string) {
	if s.audit != nil {
		m := audit.MetaFromContext(r.Context())
		rec := audit.Record{
			Kind: "evicted", Job: id, Reason: "expired",
			Source: m.Source, RequestID: m.RequestID,
		}
		if sp := obs.SpanFromContext(r.Context()); sp != nil {
			rec.TraceID = sp.TraceID.String()
		}
		s.audit.Write(rec)
	}
	body := map[string]string{
		"error":  "job results expired and were evicted",
		"reason": "expired",
	}
	if id := w.Header().Get("X-Request-Id"); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, http.StatusGone, body)
}

// jobView maps a queue job snapshot onto the response body: a done job's
// committed verdicts, or the live progress of a running one.
func jobView(j queue.Job, progress []verdictLine) JobView {
	v := JobView{
		ID:          j.ID,
		SubmittedAt: j.EnqueuedAt,
		Results:     progress,
		Attempt:     j.Attempt,
		Error:       j.LastErr,
	}
	switch j.State {
	case queue.StatePending:
		v.State = JobQueued
	case queue.StateLeased:
		v.State = JobRunning
	case queue.StateDone:
		v.State = JobDone
	case queue.StateDead:
		v.State = JobFailed
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.DoneAt.IsZero() {
		t := j.DoneAt
		v.FinishedAt = &t
	}
	if j.State == queue.StateDone {
		// Written by runLease from []verdictLine; it decodes back.
		json.Unmarshal(j.Result, &v.Results)
		v.Scripts = len(v.Results)
	} else {
		v.Scripts = batchLen(j.Payload)
	}
	return v
}

// jobWorker leases and runs queue jobs until the worker context is
// cancelled (drain or close).
func (s *Server) jobWorker(ctx context.Context, i int) {
	owner := fmt.Sprintf("serve-worker-%d", i)
	for {
		l, err := s.q.Next(ctx, owner)
		if err != nil {
			return // closed or cancelled
		}
		s.runLease(l)
	}
}

// runLease executes one leased job: decode the payload, scan it with
// heartbeat renewal keeping the lease alive, and commit the verdicts with
// Ack. The engine generation is captured at start, so a mid-job reload
// never mixes verdicts from two models within one job. A lost lease
// (missed heartbeats — the reaper reassigned the job) cancels the scan and
// commits nothing, so the new owner's verdicts are the only ones emitted.
// Undecodable payloads and missing models are Nacked: retried with
// backoff, failed once the attempt budget is spent.
func (s *Server) runLease(l *queue.Lease) {
	s.jobsPending.Add(1)
	s.met.jobInflight.Inc()
	defer func() {
		s.jobsPending.Add(-1)
		s.met.jobInflight.Dec()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.heartbeatLease(ctx, l, cancel)

	srcs, err := decodeBatch(l.Job.Payload)
	if err != nil {
		s.failLease(l, "undecodable payload: "+err.Error())
		return
	}
	eng := s.engine()
	if eng == nil {
		s.failLease(l, "no model loaded")
		return
	}
	// Join the submitting request's trace (carried in the job record, so in
	// durable mode this works even when that request hit a process that has
	// since been kill -9'd) and carry the delivery provenance into the
	// audit trail.
	sctx, sp := obs.StartSpan(s.workCtx(ctx, l.Job.Trace), "job.run")
	sp.SetAttr("job", l.Job.ID)
	sp.SetAttr("attempt", strconv.Itoa(l.Job.Attempt))
	defer sp.End()
	source := "jobs"
	if s.durable() {
		source = "durable"
	}
	sctx = audit.WithMeta(sctx, audit.Meta{
		Source: source, Job: l.Job.ID, Attempt: l.Job.Attempt,
	})
	eng.ScanSources(sctx, srcs, func(res scan.Result) {
		s.progress.add(l.Job.ID, toLine(res))
	})
	lines := s.progress.take(l.Job.ID)
	if ctx.Err() != nil {
		// The lease lapsed mid-scan and the job belongs to someone else
		// now; committing here would double-emit.
		return
	}
	data, err := json.Marshal(lines)
	if err != nil {
		s.failLease(l, "encode results: "+err.Error())
		return
	}
	if err := l.Ack(data); err == nil {
		s.met.jobs["done"].Inc()
	}
	// ErrLeaseLost / ErrClosed: the fencing token (or shutdown) already
	// decided this delivery does not count; nothing to roll back.
}

// failLease reports a failed delivery and counts a terminal failure when
// the job dead-lettered as a result.
func (s *Server) failLease(l *queue.Lease, reason string) {
	if err := l.Nack(reason); err != nil {
		return
	}
	if j, err := s.q.Get(l.Job.ID); err == nil && j.State == queue.StateDead {
		s.met.jobs["failed"].Inc()
	}
}

// heartbeatLease renews l at a third of the lease duration until ctx ends.
// A failed renewal means the lease is gone — the scan is cancelled so the
// worker stops burning cycles on a job it can no longer commit.
func (s *Server) heartbeatLease(ctx context.Context, l *queue.Lease, cancel context.CancelFunc) {
	interval := s.cfg.QueueLease / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			switch err := l.Heartbeat(); {
			case err == nil:
			case errors.Is(err, queue.ErrLeaseLost),
				errors.Is(err, queue.ErrNotFound),
				errors.Is(err, queue.ErrClosed):
				// The lease is definitively gone; stop the scan.
				cancel()
				return
			default:
				// Transient WAL I/O failure: the lease may still be live,
				// so keep scanning and retry at the next tick.
			}
		}
	}
}

// workCtx builds the observability context background workers scan under:
// the server's registry and trace store, plus — when trace is a valid
// traceparent persisted at submission — the submitting request's remote
// trace context, so worker spans join the original trace.
func (s *Server) workCtx(ctx context.Context, trace string) context.Context {
	ctx = obs.WithRegistry(ctx, s.reg)
	if s.traces != nil {
		ctx = obs.WithTraceStore(ctx, s.traces)
	}
	if rc, ok := obs.ParseTraceparent(trace); ok {
		ctx = obs.ContextWithRemote(ctx, rc)
	}
	return ctx
}
