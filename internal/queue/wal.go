package queue

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files are named NNNNNNNN.wal (zero-padded decimal sequence
// number) and replayed in sequence order. The active segment is the highest
// sequence; rotation closes it and starts the next. Compaction writes a
// snapshot segment (reset + restores) at the next sequence, after which
// every older segment is garbage.
const (
	segSuffix = ".wal"
	tmpSuffix = ".tmp"
)

func segName(seq uint64) string {
	return fmt.Sprintf("%08d%s", seq, segSuffix)
}

// parseSegName extracts the sequence from a segment filename.
func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segSuffix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment sequences in ascending
// order, deleting stale compaction temporaries (crashed mid-compaction)
// along the way.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// segment is the active append target.
type segment struct {
	f    *os.File
	seq  uint64
	size int64
	sync bool
}

// openSegment opens (creating if needed) segment seq for appending.
func openSegment(dir string, seq uint64, sync bool) (*segment, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{f: f, seq: seq, size: st.Size(), sync: sync}, nil
}

// append frames ev and writes it to the segment, fsyncing unless the queue
// runs with NoSync.
func (s *segment) append(ev walEvent) error {
	buf := appendRecord(nil, encodeEvent(ev))
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("queue: append wal record: %w", err)
	}
	s.size += int64(len(buf))
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("queue: sync wal: %w", err)
		}
	}
	return nil
}

func (s *segment) close() error {
	if s.sync {
		s.f.Sync()
	}
	return s.f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// replayResult is what replaying the on-disk WAL yields: the rebuilt job
// index plus recovery accounting.
type replayResult struct {
	jobs    map[string]*Job
	order   []string // enqueue order of jobs, the FIFO tiebreak source
	nextSeq uint64   // sequence for the next (fresh) active segment
	// truncated counts segments whose tail was torn and cut back to the
	// last healthy record.
	truncated int
}

// replay reads every segment in seqs order and folds its events into a job
// index. A segment tail that fails to decode — short record, bad checksum,
// absurd length, or unparsable JSON — is truncated in place: every record
// before it survives, and replay continues with the next segment. This is
// the recovery-on-open contract: a kill -9 mid-append must never make the
// queue refuse to start.
func replay(dir string, seqs []uint64) (*replayResult, error) {
	res := &replayResult{jobs: make(map[string]*Job), nextSeq: 1}
	if len(seqs) > 0 {
		res.nextSeq = seqs[len(seqs)-1] + 1
	}
	for _, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("queue: read segment %s: %w", path, err)
		}
		off := 0
		for off < len(data) {
			payload, n, derr := decodeRecord(data[off:])
			if derr != nil {
				// Torn or corrupt tail: keep everything before it.
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return nil, fmt.Errorf("queue: truncate torn segment %s: %w", path, terr)
				}
				res.truncated++
				break
			}
			if !res.apply(payload) {
				// A record that frames correctly but does not decode as an
				// event is corruption past the checksum; treat it the same
				// as a torn tail.
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return nil, fmt.Errorf("queue: truncate corrupt segment %s: %w", path, terr)
				}
				res.truncated++
				break
			}
			off += n
		}
	}
	return res, nil
}

// apply folds one decoded record into the index, reporting false when the
// payload is not a valid event. Events referencing unknown job ids are
// ignored — compaction legitimately drops jobs whose later events still sit
// in stale segments.
func (r *replayResult) apply(payload []byte) bool {
	ev, err := decodeEvent(payload)
	if err != nil {
		return false
	}
	switch ev.Op {
	case opEnqueue:
		if ev.ID == "" {
			return true // hostile or corrupt record; a real enqueue never has an empty id
		}
		r.jobs[ev.ID] = &Job{
			ID:         ev.ID,
			Priority:   ev.Priority,
			Payload:    ev.Payload,
			Trace:      ev.Trace,
			State:      StatePending,
			EnqueuedAt: fromNano(ev.At),
			NotBefore:  fromNano(ev.Deadline),
		}
		r.order = append(r.order, ev.ID)
	case opLease:
		if j, ok := r.jobs[ev.ID]; ok {
			j.State = StateLeased
			j.Owner = ev.Owner
			j.StartedAt = fromNano(ev.At)
			j.LeaseExpiry = fromNano(ev.Deadline)
		}
	case opExtend:
		if j, ok := r.jobs[ev.ID]; ok && j.State == StateLeased {
			j.LeaseExpiry = fromNano(ev.Deadline)
		}
	case opAck:
		if j, ok := r.jobs[ev.ID]; ok {
			j.State = StateDone
			j.Result = ev.Result
			j.Payload = nil // mirrors Ack: done jobs shed their work description
			j.DoneAt = fromNano(ev.At)
			j.Owner = ""
			j.LeaseExpiry = zeroTime
		}
	case opRetry:
		if j, ok := r.jobs[ev.ID]; ok {
			j.State = StatePending
			j.Attempt = ev.Attempt
			j.NotBefore = fromNano(ev.Deadline)
			j.LastErr = ev.Err
			j.Owner = ""
			j.LeaseExpiry = zeroTime
		}
	case opDead:
		if j, ok := r.jobs[ev.ID]; ok {
			j.State = StateDead
			j.Attempt = ev.Attempt
			j.LastErr = ev.Err
			j.DoneAt = fromNano(ev.At)
			j.Owner = ""
			j.LeaseExpiry = zeroTime
		}
	case opRemove:
		delete(r.jobs, ev.ID)
	case opReset:
		// Compaction snapshot boundary: everything replayed so far came
		// from segments older than the snapshot.
		r.jobs = make(map[string]*Job)
		r.order = r.order[:0]
	case opRestore:
		if ev.Job != nil && ev.Job.ID != "" && validState(ev.Job.State) {
			r.jobs[ev.Job.ID] = ev.Job.toJob()
			r.order = append(r.order, ev.Job.ID)
		}
	default:
		// Unknown op from a future version: ignore rather than refuse to
		// open, preserving forward compatibility of the file format.
	}
	return true
}

// validState reports whether s is one of the four real job states —
// restore records from a corrupt or hostile WAL must not smuggle impossible
// states into the index.
func validState(s State) bool {
	switch s {
	case StatePending, StateLeased, StateDone, StateDead:
		return true
	}
	return false
}

// decodeEvent parses one event payload.
func decodeEvent(payload []byte) (walEvent, error) {
	var ev walEvent
	err := json.Unmarshal(payload, &ev)
	return ev, err
}

// writeSnapshot writes a compacted snapshot segment at seq: a reset marker
// followed by one restore per job in ord order. It is written to a
// temporary file, fsynced, and renamed into place so a crash mid-compaction
// leaves either the old segments or a complete snapshot — never a partial
// one.
func writeSnapshot(dir string, seq uint64, jobs map[string]*Job, ord []string, sync bool) error {
	buf := appendRecord(nil, encodeEvent(walEvent{Op: opReset}))
	for _, id := range ord {
		j, ok := jobs[id]
		if !ok {
			continue
		}
		buf = appendRecord(buf, encodeEvent(walEvent{Op: opRestore, Job: j.toState()}))
	}
	tmp := filepath.Join(dir, segName(seq)+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, segName(seq))); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		syncDir(dir)
	}
	return nil
}

// removeSegmentsBefore deletes every segment older than keep. Failures are
// ignored: leftover stale segments are harmless (the snapshot's reset
// neutralizes them on replay) and the next compaction retries.
func removeSegmentsBefore(dir string, keep uint64) {
	seqs, err := listSegments(dir)
	if err != nil {
		return
	}
	removed := false
	for _, seq := range seqs {
		if seq < keep {
			os.Remove(filepath.Join(dir, segName(seq)))
			removed = true
		}
	}
	if removed {
		syncDir(dir)
	}
}

// totalSegmentBytes sums the on-disk size of every segment.
func totalSegmentBytes(dir string) int64 {
	seqs, err := listSegments(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, seq := range seqs {
		if st, err := os.Stat(filepath.Join(dir, segName(seq))); err == nil {
			total += st.Size()
		}
	}
	return total
}
