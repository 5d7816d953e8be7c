package queue

import (
	"sort"
	"time"
)

// reapLoop is the queue's janitor goroutine: every ReapInterval it
// reclaims expired leases (rescheduling or dead-lettering the jobs whose
// workers went silent), promotes delayed jobs whose backoff elapsed,
// removes done/dead jobs past the result TTL, and triggers compaction when
// the WAL's dead weight crosses the threshold.
func (q *Queue) reapLoop() {
	defer q.wg.Done()
	tick := time.NewTicker(q.opts.ReapInterval)
	defer tick.Stop()
	for {
		select {
		case <-q.closeCh:
			return
		case <-tick.C:
			q.reap()
		}
	}
}

// reap runs one janitor pass.
func (q *Queue) reap() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	now := q.opts.now()
	woke := false

	// Expired leases: the worker missed its heartbeat window — hung,
	// crashed, or partitioned. Reclaim with backoff (unlike crash
	// recovery, the process is alive, so immediate redelivery could
	// hot-loop against whatever is wedging the worker).
	for _, j := range q.jobs {
		if j.State == StateLeased && now.After(j.LeaseExpiry) {
			q.met.leaseExpired.Inc()
			q.failLocked(j, now, "lease expired", true)
			woke = true
		}
	}

	// Backoff promotions.
	before := q.ready.Len()
	q.promoteLocked(now)
	woke = woke || q.ready.Len() > before

	// Result TTL: finished jobs nobody polled in time are removed (leaving
	// a tombstone) so the index and the WAL stay bounded.
	for _, j := range q.jobs {
		if (j.State == StateDone || j.State == StateDead) &&
			!j.DoneAt.IsZero() && now.Sub(j.DoneAt) > q.opts.ResultTTL {
			q.appendLocked(walEvent{Op: opRemove, ID: j.ID, At: now.UnixNano()})
			q.removeLocked(j)
		}
	}

	q.met.depth.Set(float64(q.depthLocked()))
	if woke {
		q.signalLocked()
	}

	needCompact := q.shouldCompactLocked()
	q.mu.Unlock()
	if needCompact {
		q.Compact()
	}
}

// shouldCompactLocked decides whether the WAL carries enough dead weight
// to be worth folding into a snapshot: total size beyond one segment's
// worth and at least twice the live-state estimate. A memory-only queue
// has no WAL to compact.
func (q *Queue) shouldCompactLocked() bool {
	if q.seg == nil {
		return false
	}
	total := totalSegmentBytes(q.dir)
	if total < q.opts.SegmentBytes {
		return false
	}
	return total > 2*q.liveBytesLocked()
}

// liveBytesLocked estimates what a snapshot of the current state would
// occupy: payload and result bytes plus a fixed per-job overhead for the
// restore record's framing and metadata.
func (q *Queue) liveBytesLocked() int64 {
	const perJobOverhead = 256
	var live int64
	for _, j := range q.jobs {
		live += int64(len(j.Payload)+len(j.Result)) + perJobOverhead
	}
	return live
}

// Compact folds the queue's live state into a fresh snapshot segment and
// deletes the older segments. Crash-safe at every step: the snapshot is
// written to a temp file and renamed into place, and its leading reset
// marker neutralizes any stale segment a crash leaves behind. Compaction
// runs automatically from the reaper; the export exists for tests and
// operational tooling. On a memory-only queue it is a no-op.
func (q *Queue) Compact() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.seg == nil {
		return nil
	}
	// Snapshot at the sequence after the active segment, then append
	// future records to a segment after that.
	snapSeq := q.seg.seq + 1
	if err := writeSnapshot(q.dir, snapSeq, q.jobs, q.orderedIDsLocked(), !q.opts.NoSync); err != nil {
		return err
	}
	if err := q.seg.close(); err != nil {
		return err
	}
	seg, err := openSegment(q.dir, snapSeq+1, !q.opts.NoSync)
	if err != nil {
		return err
	}
	q.seg = seg
	removeSegmentsBefore(q.dir, snapSeq)
	return nil
}

// orderedIDsLocked returns job ids in enqueue-sequence order, so a replayed
// snapshot preserves FIFO fairness within each priority class.
func (q *Queue) orderedIDsLocked() []string {
	ids := make([]string, 0, len(q.jobs))
	for id := range q.jobs {
		ids = append(ids, id)
	}
	// Sort by the in-memory sequence; the heaps re-derive ordering on
	// replay from restore-record order.
	sort.Slice(ids, func(a, b int) bool {
		return q.jobs[ids[a]].seq < q.jobs[ids[b]].seq
	})
	return ids
}
