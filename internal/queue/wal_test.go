package queue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 10_000)}
	var buf []byte
	for _, p := range payloads {
		buf = appendRecord(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
		off += n
	}
	if _, _, err := decodeRecord(buf[off:]); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	rec := appendRecord(nil, []byte("hello wal"))
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short header", func(b []byte) []byte { return b[:5] }, errShortRecord},
		{"short payload", func(b []byte) []byte { return b[:len(b)-3] }, errShortRecord},
		{"flipped payload bit", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[recordHeaderLen] ^= 0x40
			return c
		}, errChecksum},
		{"flipped checksum bit", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[5] ^= 0x01
			return c
		}, errChecksum},
		{"absurd length", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[0], c[1], c[2], c[3] = 0xff, 0xff, 0xff, 0xff
			return c
		}, errTooLarge},
	} {
		if _, _, err := decodeRecord(tc.mut(rec)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// corruptTail flips bits near the end of the newest segment, simulating a
// torn write (power loss mid-append).
func corruptTail(t *testing.T, dir string, cut int) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	path := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cut >= len(data) {
		t.Fatalf("segment only %d bytes, cannot cut %d", len(data), cut)
	}
	if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTornWriteRecoversEarlierRecords is the satellite's torn-write test:
// chop bytes off the active segment's tail and assert every record before
// the tear survives recovery, with the file truncated back to health.
func TestTornWriteRecoversEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	q := openQ(t, dir, opts)
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(fmt.Sprintf("j%d", i), 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	q.Abandon()

	// Tear mid-record: the last enqueue is lost, the other nine survive.
	path := corruptTail(t, dir, 7)
	q2 := openQ(t, dir, fastOpts())
	if d := q2.Depth(); d != 9 {
		t.Fatalf("depth after torn-tail recovery = %d, want 9", d)
	}
	if _, err := q2.Get("j9"); !errors.Is(err, ErrNotFound) {
		t.Errorf("torn job present after recovery: %v", err)
	}
	for i := 0; i < 9; i++ {
		if _, err := q2.Get(fmt.Sprintf("j%d", i)); err != nil {
			t.Errorf("job j%d lost to an unrelated tear: %v", i, err)
		}
	}
	// The torn file was truncated to its last healthy record, so the next
	// open sees a clean log.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for off < len(data) {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			t.Fatalf("truncated segment still corrupt at %d: %v", off, err)
		}
		off += n
	}
	// New writes append cleanly after recovery.
	if err := q2.Enqueue("fresh", 0, nil); err != nil {
		t.Fatal(err)
	}
	q2.Close()
	q3 := openQ(t, dir, fastOpts())
	if d := q3.Depth(); d != 10 {
		t.Errorf("depth after post-recovery writes = %d, want 10", d)
	}
}

// TestBitFlipMidSegment: corruption in the middle of a segment truncates
// from the damaged record onward but never panics or fails the open.
func TestBitFlipMidSegment(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, fastOpts())
	for i := 0; i < 6; i++ {
		q.Enqueue(fmt.Sprintf("j%d", i), 0, bytes.Repeat([]byte("x"), 100))
	}
	q.Abandon()

	seqs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	data, _ := os.ReadFile(path)
	// Flip a bit roughly halfway in: a mid-log record's payload.
	mut := bytes.Clone(data)
	mut[len(mut)/2] ^= 0x10
	os.WriteFile(path, mut, 0o644)

	q2 := openQ(t, dir, fastOpts())
	d := q2.Depth()
	if d >= 6 || d < 1 {
		t.Errorf("depth after mid-segment bit flip = %d, want 1..5 (prefix survives)", d)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 512 // force rotation quickly
	q := openQ(t, dir, opts)
	for i := 0; i < 30; i++ {
		if err := q.Enqueue(fmt.Sprintf("j%d", i), 0, bytes.Repeat([]byte("y"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("only %d segments after 30 oversized enqueues, rotation broken", len(seqs))
	}
	q.Close()
	q2 := openQ(t, dir, fastOpts())
	if d := q2.Depth(); d != 30 {
		t.Errorf("depth across %d segments = %d, want 30", len(seqs), d)
	}
}

func TestCompactionShrinksWALAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 1 << 20
	q := openQ(t, dir, opts)
	// Lots of churn: enqueue+ack leaves long-dead WAL weight behind.
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("churn-%d", i)
		q.Enqueue(id, 0, bytes.Repeat([]byte("z"), 256))
		l := mustLease(t, q, "w")
		l.Ack(nil)
	}
	// Live state to preserve: a done job with a result, a once-retried
	// pending job, and a plain pending job.
	q.Enqueue("keep-done", 0, nil)
	ld := mustLease(t, q, "w")
	if ld.Job.ID != "keep-done" {
		t.Fatalf("leased %s, want keep-done", ld.Job.ID)
	}
	if err := ld.Ack([]byte("kept-result")); err != nil {
		t.Fatal(err)
	}
	q.Enqueue("keep-pending-1", 2, []byte("p1"))
	l := mustLease(t, q, "w")
	if l.Job.ID != "keep-pending-1" {
		t.Fatalf("leased %s, want keep-pending-1", l.Job.ID)
	}
	l.Nack("make it retry once") // exercise attempt preservation
	q.Enqueue("keep-pending-2", 0, []byte("p2"))

	before := totalSegmentBytes(dir)
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	after := totalSegmentBytes(dir)
	if after >= before/2 {
		t.Errorf("compaction: %d -> %d bytes, expected a big shrink", before, after)
	}

	// All live state survives compaction and a reopen. The 200 churned
	// done jobs survive too (still within TTL) — compaction drops log
	// weight, not queryable results.
	q.Close()
	q2 := openQ(t, dir, fastOpts())
	if j, err := q2.Get("keep-pending-1"); err != nil || j.State != StatePending || j.Attempt != 1 || j.Priority != 2 {
		t.Errorf("keep-pending-1 after compaction = %+v err %v", j, err)
	}
	if j, err := q2.Get("keep-done"); err != nil {
		t.Errorf("keep-done after compaction: %v", err)
	} else if j.State != StateDone || string(j.Result) != "kept-result" {
		t.Errorf("keep-done = %+v", j)
	} else if j.StartedAt.IsZero() || !j.StartedAt.Equal(ld.Job.StartedAt) {
		t.Errorf("keep-done started_at = %v, want the lease time %v", j.StartedAt, ld.Job.StartedAt)
	}
	if j, err := q2.Get("churn-0"); err != nil || j.State != StateDone {
		t.Errorf("churn-0 after compaction = %+v err %v", j, err)
	}
	// keep-pending-2 and keep-pending-1 are still deliverable.
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		l := mustLease(t, q2, "w")
		seen[l.Job.ID] = true
		l.Ack(nil)
	}
	if !seen["keep-pending-1"] || !seen["keep-pending-2"] {
		t.Errorf("post-compaction deliveries = %v", seen)
	}
}

// TestCrashMidCompactionLeavesConsistentState simulates dying between
// writing the snapshot and deleting the old segments: replay must land on
// the snapshot's state, not a blend.
func TestCrashMidCompactionLeavesConsistentState(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, fastOpts())
	q.Enqueue("a", 0, nil)
	q.Enqueue("b", 0, nil)
	l := mustLease(t, q, "w")
	l.Ack([]byte("done-a"))
	q.Abandon()

	// Hand-write the snapshot the way Compact would, but "crash" before
	// removing the old segments: both generations coexist on disk.
	seqs, _ := listSegments(dir)
	rep, err := replay(dir, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, seqs[len(seqs)-1]+1, rep.jobs, rep.order, false); err != nil {
		t.Fatal(err)
	}

	q2 := openQ(t, dir, fastOpts())
	ja, err := q2.Get("a")
	if err != nil || ja.State != StateDone || string(ja.Result) != "done-a" {
		t.Fatalf("job a after mid-compaction crash = %+v err %v", ja, err)
	}
	jb, err := q2.Get("b")
	if err != nil || jb.State != StatePending {
		t.Fatalf("job b after mid-compaction crash = %+v err %v", jb, err)
	}
	// Exactly one copy of each job: lease b, and nothing else is eligible.
	lb := mustLease(t, q2, "w")
	if lb.Job.ID != "b" {
		t.Fatalf("leased %s, want b", lb.Job.ID)
	}
	if extra, err := q2.TryNext("w"); err != nil || extra != nil {
		t.Errorf("duplicate job after mid-compaction crash: %+v %v", extra, err)
	}
}

// TestStaleTmpSnapshotIgnored: a crash before the snapshot rename leaves a
// .tmp file that open must discard.
func TestStaleTmpSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, fastOpts())
	q.Enqueue("real", 0, nil)
	q.Abandon()
	tmp := filepath.Join(dir, segName(99)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial snapshot garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := openQ(t, dir, fastOpts())
	if d := q2.Depth(); d != 1 {
		t.Errorf("depth with stale tmp present = %d, want 1", d)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale tmp snapshot not cleaned up: %v", err)
	}
}

// TestReaperCompactsAutomatically drives enough churn that the reaper's
// dead-weight heuristic kicks in without an explicit Compact call: results
// expire on a short TTL, live weight collapses, and the WAL shrinks to a
// near-empty snapshot.
func TestReaperCompactsAutomatically(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 2048
	opts.ReapInterval = 10 * time.Millisecond
	opts.ResultTTL = 30 * time.Millisecond
	q := openQ(t, dir, opts)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%d", i)
		q.Enqueue(id, 0, bytes.Repeat([]byte("w"), 128))
		l := mustLease(t, q, "w")
		l.Ack(nil)
	}
	after := totalSegmentBytes(dir)
	if after < 2048 {
		t.Fatalf("churn produced only %d WAL bytes; test premise broken", after)
	}
	deadline := time.Now().Add(10 * time.Second)
	for totalSegmentBytes(dir) >= 2048 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never compacted; WAL still %d bytes", totalSegmentBytes(dir))
		}
		time.Sleep(20 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := q.Next(ctx, "w"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queue should be empty after churn, Next = %v", err)
	}
}
