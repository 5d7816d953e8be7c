package queue

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"time"
)

// WAL record framing: every record is an 8-byte header — payload length and
// CRC32-Castagnoli of the payload, both little-endian uint32 — followed by
// the payload bytes. The checksum makes torn and bit-flipped tails
// detectable during replay; the length prefix makes the stream
// self-delimiting without any record separator that payload bytes could
// collide with.
const (
	recordHeaderLen = 8
	// maxRecordBytes caps one record's payload. Anything larger in a length
	// prefix is corruption (or an absurd job) — recovery treats it as a torn
	// tail rather than attempting a multi-gigabyte allocation.
	maxRecordBytes = 32 << 20
)

// Record decoding failures. All three mean "the WAL ends here" to recovery:
// the reader truncates at the last good record instead of failing open.
var (
	errShortRecord = errors.New("queue: truncated record")
	errChecksum    = errors.New("queue: record checksum mismatch")
	errTooLarge    = errors.New("queue: record length exceeds cap")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroTime is the cleared value for lease/done timestamps.
var zeroTime time.Time

// appendRecord appends one framed record carrying payload to dst.
func appendRecord(dst, payload []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// decodeRecord decodes the first record in b, returning its payload and the
// total bytes consumed. io.EOF means a clean end (b is empty);
// errShortRecord, errTooLarge, and errChecksum all mean the bytes at the
// front of b are not a whole healthy record — recovery truncates there. The
// returned payload aliases b.
func decodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, io.EOF
	}
	if len(b) < recordHeaderLen {
		return nil, 0, errShortRecord
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln > maxRecordBytes {
		return nil, 0, errTooLarge
	}
	end := recordHeaderLen + int(ln)
	if len(b) < end {
		return nil, 0, errShortRecord
	}
	payload = b[recordHeaderLen:end]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errChecksum
	}
	return payload, end, nil
}

// walOp discriminates WAL events.
type walOp string

// The redo-log event set. Enqueue/lease/extend/ack/retry/dead/remove are
// incremental state transitions; reset/restore are the compaction pair — a
// compacted segment starts with a reset (drop everything replayed so far)
// followed by one restore per live job, which makes compaction crash-safe:
// stale older segments replayed before the reset contribute nothing.
const (
	opEnqueue walOp = "enqueue"
	opLease   walOp = "lease"
	opExtend  walOp = "extend"
	opAck     walOp = "ack"
	opRetry   walOp = "retry"
	opDead    walOp = "dead"
	opRemove  walOp = "remove"
	opReset   walOp = "reset"
	opRestore walOp = "restore"
)

// walEvent is one WAL record payload, JSON-encoded. Retry events carry the
// outcome of the retry decision (new attempt count and earliest next
// delivery) rather than its inputs, so replay never re-runs jittered
// backoff math.
type walEvent struct {
	Op       walOp     `json:"op"`
	ID       string    `json:"id,omitempty"`
	Priority int       `json:"pri,omitempty"`
	Payload  []byte    `json:"payload,omitempty"`
	Result   []byte    `json:"result,omitempty"`
	Owner    string    `json:"owner,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	Trace    string    `json:"trace,omitempty"`    // submitter's traceparent (enqueue events)
	At       int64     `json:"at,omitempty"`       // event time, unix nanos
	Deadline int64     `json:"deadline,omitempty"` // lease expiry or retry not-before, unix nanos
	Err      string    `json:"err,omitempty"`
	Job      *jobState `json:"job,omitempty"` // restore events only
}

// jobState is the full durable image of one job, written by compaction
// restore events.
type jobState struct {
	ID          string `json:"id"`
	Priority    int    `json:"pri,omitempty"`
	Payload     []byte `json:"payload,omitempty"`
	Trace       string `json:"trace,omitempty"`
	Attempt     int    `json:"attempt,omitempty"`
	State       State  `json:"state"`
	EnqueuedAt  int64  `json:"enqueued_at,omitempty"`
	NotBefore   int64  `json:"not_before,omitempty"`
	LeaseExpiry int64  `json:"lease_expiry,omitempty"`
	Owner       string `json:"owner,omitempty"`
	Result      []byte `json:"result,omitempty"`
	LastErr     string `json:"err,omitempty"`
	StartedAt   int64  `json:"started_at,omitempty"`
	DoneAt      int64  `json:"done_at,omitempty"`
}

func encodeEvent(ev walEvent) []byte {
	b, err := json.Marshal(ev)
	if err != nil {
		// walEvent contains only marshalable fields; this is unreachable
		// short of memory corruption.
		panic("queue: marshal wal event: " + err.Error())
	}
	return b
}

// nanoTime converts a time to the WAL's unix-nano representation, keeping
// the zero time zero.
func nanoTime(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// fromNano inverts nanoTime.
func fromNano(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

func (j *Job) toState() *jobState {
	return &jobState{
		ID:          j.ID,
		Priority:    j.Priority,
		Payload:     j.Payload,
		Trace:       j.Trace,
		Attempt:     j.Attempt,
		State:       j.State,
		EnqueuedAt:  nanoTime(j.EnqueuedAt),
		NotBefore:   nanoTime(j.NotBefore),
		LeaseExpiry: nanoTime(j.LeaseExpiry),
		Owner:       j.Owner,
		Result:      j.Result,
		LastErr:     j.LastErr,
		StartedAt:   nanoTime(j.StartedAt),
		DoneAt:      nanoTime(j.DoneAt),
	}
}

func (s *jobState) toJob() *Job {
	return &Job{
		ID:          s.ID,
		Priority:    s.Priority,
		Payload:     s.Payload,
		Trace:       s.Trace,
		Attempt:     s.Attempt,
		State:       s.State,
		EnqueuedAt:  fromNano(s.EnqueuedAt),
		NotBefore:   fromNano(s.NotBefore),
		LeaseExpiry: fromNano(s.LeaseExpiry),
		Owner:       s.Owner,
		Result:      s.Result,
		LastErr:     s.LastErr,
		StartedAt:   fromNano(s.StartedAt),
		DoneAt:      fromNano(s.DoneAt),
	}
}
