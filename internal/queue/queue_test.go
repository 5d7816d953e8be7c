package queue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"jsrevealer/internal/obs"
	"jsrevealer/internal/retry"
)

// fastOpts returns test options: no fsync (speed), tiny backoff, fast
// reaper, and a private registry so parallel tests never share metrics.
func fastOpts() Options {
	return Options{
		NoSync:       true,
		ReapInterval: 10 * time.Millisecond,
		Backoff:      retry.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond},
		Registry:     obs.NewRegistry(),
	}
}

func openQ(t *testing.T, dir string, opts Options) *Queue {
	t.Helper()
	q, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// eachMode runs a lifecycle test over both backing stores: a WAL directory
// and a memory-only queue (dir "").
func eachMode(t *testing.T, test func(t *testing.T, dir string)) {
	t.Run("wal", func(t *testing.T) { test(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { test(t, "") })
}

func mustLease(t *testing.T, q *Queue, owner string) *Lease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := q.Next(ctx, owner)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return l
}

func TestEnqueueAckLifecycle(t *testing.T) {
	eachMode(t, testEnqueueAckLifecycle)
}

func testEnqueueAckLifecycle(t *testing.T, dir string) {
	if dir == "" {
		// A memory-only queue must not touch the filesystem at all; run it
		// in an empty working directory and check that it stays empty.
		wd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chdir(wd) })
	}
	q := openQ(t, dir, fastOpts())
	if err := q.Enqueue("j1", 0, []byte("work")); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("j1", 0, nil); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate enqueue = %v, want ErrExists", err)
	}
	if err := q.Enqueue("", 0, nil); err == nil {
		t.Error("empty id accepted")
	}
	if d := q.Depth(); d != 1 {
		t.Errorf("depth = %d, want 1", d)
	}

	l := mustLease(t, q, "w1")
	if l.Job.ID != "j1" || string(l.Job.Payload) != "work" || l.Job.State != StateLeased || l.Job.StartedAt.IsZero() {
		t.Fatalf("lease = %+v", l.Job)
	}
	if j, _ := q.Get("j1"); j.State != StateLeased || j.Owner != "w1" {
		t.Errorf("leased job = %+v", j)
	}
	if err := l.Ack([]byte("verdicts")); err != nil {
		t.Fatal(err)
	}
	j, err := q.Get("j1")
	if err != nil || j.State != StateDone || string(j.Result) != "verdicts" {
		t.Fatalf("done job = %+v err %v", j, err)
	}
	if d := q.Depth(); d != 0 {
		t.Errorf("depth after ack = %d, want 0", d)
	}
	if _, err := q.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown Get = %v, want ErrNotFound", err)
	}
	if dir == "" {
		if err := q.Compact(); err != nil {
			t.Errorf("memory-only Compact = %v", err)
		}
		if st := q.Stats(); st.WALBytes != 0 || st.Done != 1 {
			t.Errorf("memory-only stats = %+v", st)
		}
		q.Close()
		if ents, err := os.ReadDir("."); err != nil || len(ents) != 0 {
			t.Errorf("memory-only queue left files behind: %v (err %v)", ents, err)
		}
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	q1 := openQ(t, dir, opts)
	for i := 0; i < 5; i++ {
		if err := q1.Enqueue(fmt.Sprintf("job-%d", i), 0, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	// Finish one, lease one (left in-flight at crash time), leave three
	// pending.
	l := mustLease(t, q1, "w")
	doneID := l.Job.ID
	if err := l.Ack([]byte("result-bytes")); err != nil {
		t.Fatal(err)
	}
	inflight := mustLease(t, q1, "w")
	q1.Abandon() // kill -9

	reg := obs.NewRegistry()
	opts.Registry = reg
	q2 := openQ(t, dir, opts)
	// The finished verdict survived.
	j, err := q2.Get(doneID)
	if err != nil || j.State != StateDone || string(j.Result) != "result-bytes" {
		t.Fatalf("done job after reopen = %+v err %v", j, err)
	}
	if !j.StartedAt.Equal(l.Job.StartedAt) {
		t.Errorf("done job started_at after reopen = %v, want the lease time %v", j.StartedAt, l.Job.StartedAt)
	}
	// The in-flight job was reclaimed with its interrupted attempt counted.
	j, err = q2.Get(inflight.Job.ID)
	if err != nil || j.State != StatePending || j.Attempt != 1 {
		t.Fatalf("crashed in-flight job = %+v err %v", j, err)
	}
	// All four unfinished jobs are deliverable again.
	if d := q2.Depth(); d != 4 {
		t.Errorf("depth after reopen = %d, want 4", d)
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		l := mustLease(t, q2, "w2")
		seen[l.Job.ID] = true
		if err := l.Ack(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 || seen[doneID] {
		t.Errorf("redelivered set = %v", seen)
	}
	if n := reg.Counter(RecoveredMetric, "", nil).Value(); n != 4 {
		t.Errorf("recovered counter = %d, want 4", n)
	}
	// A stale lease from before the crash can no longer commit anything.
	if err := inflight.Ack([]byte("dup")); !errors.Is(err, ErrClosed) {
		t.Errorf("stale pre-crash ack on abandoned queue = %v, want ErrClosed", err)
	}
}

func TestTraceSurvivesReopenAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	const trace = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	q1 := openQ(t, dir, opts)
	if err := q1.EnqueueTrace("traced", 0, []byte("p"), trace); err != nil {
		t.Fatal(err)
	}
	if err := q1.Enqueue("plain", 0, []byte("p")); err != nil {
		t.Fatal(err)
	}
	q1.Abandon() // kill -9

	// WAL replay restores the trace context.
	q2 := openQ(t, dir, opts)
	j, err := q2.Get("traced")
	if err != nil || j.Trace != trace {
		t.Fatalf("after replay: job = %+v err %v, want trace %s", j, err, trace)
	}
	if j, _ := q2.Get("plain"); j.Trace != "" {
		t.Errorf("untraced job grew a trace: %+v", j)
	}
	// Compaction snapshots (reset + restore) must carry it too.
	if err := q2.Compact(); err != nil {
		t.Fatal(err)
	}
	q2.Abandon()
	q3 := openQ(t, dir, opts)
	j, err = q3.Get("traced")
	if err != nil || j.Trace != trace {
		t.Fatalf("after compaction: job = %+v err %v, want trace %s", j, err, trace)
	}
	// The trace rides the lease to whichever worker picks the job up.
	seen := map[string]string{}
	for i := 0; i < 2; i++ {
		l := mustLease(t, q3, "w")
		seen[l.Job.ID] = l.Job.Trace
		if err := l.Ack(nil); err != nil {
			t.Fatal(err)
		}
	}
	if seen["traced"] != trace || seen["plain"] != "" {
		t.Errorf("leased traces = %v", seen)
	}
}

func TestPriorityAndFIFOOrder(t *testing.T) {
	q := openQ(t, t.TempDir(), fastOpts())
	for _, j := range []struct {
		id  string
		pri int
	}{{"low-1", 0}, {"high-1", 5}, {"low-2", 0}, {"high-2", 5}} {
		if err := q.Enqueue(j.id, j.pri, nil); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 4; i++ {
		l := mustLease(t, q, "w")
		got = append(got, l.Job.ID)
		l.Ack(nil)
	}
	want := []string{"high-1", "high-2", "low-1", "low-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", got, want)
		}
	}
}

func TestNackRetriesThenDeadLetters(t *testing.T) {
	eachMode(t, testNackRetriesThenDeadLetters)
}

func testNackRetriesThenDeadLetters(t *testing.T, dir string) {
	opts := fastOpts()
	opts.MaxAttempts = 3
	reg := opts.Registry
	q := openQ(t, dir, opts)
	if err := q.Enqueue("poison", 0, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		l := mustLease(t, q, "w")
		if l.Job.Attempt != attempt-1 {
			t.Fatalf("delivery %d: attempt = %d", attempt, l.Job.Attempt)
		}
		if err := l.Nack("classifier exploded"); err != nil {
			t.Fatal(err)
		}
	}
	j, err := q.Get("poison")
	if err != nil || j.State != StateDead || j.Attempt != 3 || j.LastErr != "classifier exploded" {
		t.Fatalf("poisoned job = %+v err %v", j, err)
	}
	if d := q.Depth(); d != 0 {
		t.Errorf("depth with only a dead job = %d, want 0", d)
	}
	if n := reg.Counter(DeadLetterMetric, "", nil).Value(); n != 1 {
		t.Errorf("dead letter counter = %d, want 1", n)
	}
	if n := reg.Counter(RetriesMetric, "", nil).Value(); n != 2 {
		t.Errorf("retries counter = %d, want 2", n)
	}
	// Nothing left to lease.
	if l, err := q.TryNext("w"); err != nil || l != nil {
		t.Errorf("TryNext over a dead-only queue = %v, %v", l, err)
	}
	if dir == "" {
		return // nothing to reopen
	}
	// The dead job survives a reopen in its dead state.
	q.Close()
	q2 := openQ(t, q.dir, fastOpts())
	if j, err := q2.Get("poison"); err != nil || j.State != StateDead {
		t.Errorf("dead job after reopen = %+v err %v", j, err)
	}
}

func TestNackBackoffDelaysRedelivery(t *testing.T) {
	opts := fastOpts()
	opts.Backoff = retry.Policy{
		Base: 150 * time.Millisecond, Cap: 150 * time.Millisecond,
		Rand: func() float64 { return 0.999999 }, // ~full ceiling, deterministic
	}
	q := openQ(t, t.TempDir(), opts)
	q.Enqueue("j", 0, nil)
	l := mustLease(t, q, "w")
	start := time.Now()
	if err := l.Nack("transient"); err != nil {
		t.Fatal(err)
	}
	// Redelivery happens, but only after the backoff window.
	l2 := mustLease(t, q, "w")
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("redelivered after %v, want >= ~150ms backoff", elapsed)
	}
	if l2.Job.Attempt != 1 || l2.Job.LastErr != "transient" {
		t.Errorf("redelivered job = %+v", l2.Job)
	}
}

func TestLeaseExpiryReclaimedByReaper(t *testing.T) {
	eachMode(t, testLeaseExpiryReclaimedByReaper)
}

func testLeaseExpiryReclaimedByReaper(t *testing.T, dir string) {
	opts := fastOpts()
	opts.LeaseDuration = 50 * time.Millisecond
	opts.MaxAttempts = 2
	reg := opts.Registry
	q := openQ(t, dir, opts)
	q.Enqueue("j", 0, nil)

	l := mustLease(t, q, "silent-worker")
	// No heartbeat: the reaper reclaims the lease and the job is
	// redelivered to a healthier worker.
	l2 := mustLease(t, q, "good-worker")
	if l2.Job.ID != "j" || l2.Job.Attempt != 1 {
		t.Fatalf("reclaimed delivery = %+v", l2.Job)
	}
	if n := reg.Counter(LeaseExpiredMetric, "", nil).Value(); n != 1 {
		t.Errorf("lease expired counter = %d, want 1", n)
	}
	// The fenced-out first worker cannot ack, heartbeat, or nack.
	if err := l.Ack([]byte("dup")); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale ack = %v, want ErrLeaseLost", err)
	}
	if err := l.Heartbeat(); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale heartbeat = %v, want ErrLeaseLost", err)
	}
	// The live lease commits exactly once.
	if err := l2.Ack([]byte("real")); err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Get("j"); string(j.Result) != "real" {
		t.Errorf("result = %q, want the live worker's", j.Result)
	}
	if d := q.Depth(); d != 0 {
		t.Errorf("depth after the reclaimed job finished = %d, want 0", d)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	opts := fastOpts()
	opts.LeaseDuration = 60 * time.Millisecond
	q := openQ(t, t.TempDir(), opts)
	q.Enqueue("j", 0, nil)
	l := mustLease(t, q, "w")
	// Renew across several would-be expiries.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := l.Heartbeat(); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if j, _ := q.Get("j"); j.State != StateLeased || j.Attempt != 0 {
		t.Fatalf("job after heartbeats = %+v, want still leased", j)
	}
	if err := l.Ack(nil); err != nil {
		t.Fatalf("ack after heartbeats: %v", err)
	}
}

func TestResultTTLRemovesAndTombstones(t *testing.T) {
	eachMode(t, testResultTTLRemovesAndTombstones)
}

func testResultTTLRemovesAndTombstones(t *testing.T, dir string) {
	opts := fastOpts()
	opts.ResultTTL = 40 * time.Millisecond
	q := openQ(t, dir, opts)
	q.Enqueue("j", 0, nil)
	l := mustLease(t, q, "w")
	l.Ack([]byte("r"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.Get("j"); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !q.Forgotten("j") {
		t.Error("expired job not tombstoned")
	}
	if q.Forgotten("never-existed") {
		t.Error("unknown id reported as forgotten")
	}
}

func TestNextBlocksUntilEnqueue(t *testing.T) {
	q := openQ(t, t.TempDir(), fastOpts())
	got := make(chan string, 1)
	go func() {
		l, err := q.Next(context.Background(), "w")
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- l.Job.ID
	}()
	time.Sleep(20 * time.Millisecond)
	q.Enqueue("late", 0, nil)
	select {
	case id := <-got:
		if id != "late" {
			t.Fatalf("blocked Next delivered %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke for the enqueue")
	}

	// Context cancellation unblocks a waiter.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { _, err := q.Next(ctx, "w"); errc <- err }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Next = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never honored cancellation")
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	q := openQ(t, t.TempDir(), fastOpts())
	errc := make(chan error, 1)
	go func() { _, err := q.Next(context.Background(), "w"); errc <- err }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Next after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
	if err := q.Enqueue("x", 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Enqueue after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentProducersConsumers is the race-detector workout: many
// producers and consumers over one queue, every job delivered and acked
// exactly once.
func TestConcurrentProducersConsumers(t *testing.T) {
	eachMode(t, testConcurrentProducersConsumers)
}

func testConcurrentProducersConsumers(t *testing.T, dir string) {
	const producers, perProducer, consumers = 4, 25, 4
	total := producers * perProducer
	q := openQ(t, dir, fastOpts())

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := fmt.Sprintf("p%d-j%d", p, i)
				if err := q.Enqueue(id, i%3, []byte(id)); err != nil {
					t.Errorf("enqueue %s: %v", id, err)
				}
			}
		}(p)
	}

	var mu sync.Mutex
	delivered := make(map[string]int, total)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for {
				l, err := q.Next(ctx, fmt.Sprintf("w%d", c))
				if err != nil {
					return
				}
				if err := l.Ack(l.Job.Payload); err != nil {
					t.Errorf("ack %s: %v", l.Job.ID, err)
				}
				mu.Lock()
				delivered[l.Job.ID]++
				n := len(delivered)
				mu.Unlock()
				if n == total {
					cancel()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { cwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumers never drained the queue")
	}
	for id, n := range delivered {
		if n != 1 {
			t.Errorf("job %s delivered %d times", id, n)
		}
	}
	if len(delivered) != total {
		t.Errorf("delivered %d jobs, want %d", len(delivered), total)
	}
}

// TestCrashDuringConcurrentLoad abandons a busy queue mid-flight and
// verifies a reopen finishes every job exactly once from the consumers'
// perspective (at-least-once delivery, exactly-once commit via fencing).
func TestCrashDuringConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.NoSync = true
	q1 := openQ(t, dir, opts)
	const total = 40
	for i := 0; i < total; i++ {
		if err := q1.Enqueue(fmt.Sprintf("j%d", i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Lease a handful without acking, ack a handful, then crash.
	for i := 0; i < 5; i++ {
		mustLease(t, q1, "doomed")
	}
	acked := map[string]bool{}
	for i := 0; i < 5; i++ {
		l := mustLease(t, q1, "doomed")
		if err := l.Ack([]byte("done-before-crash")); err != nil {
			t.Fatal(err)
		}
		acked[l.Job.ID] = true
	}
	q1.Abandon()

	q2 := openQ(t, dir, fastOpts())
	// Acked results survived; everything else completes now.
	finished := 0
	for {
		l, err := q2.TryNext("survivor")
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		if acked[l.Job.ID] {
			t.Errorf("job %s redelivered after its verdict was committed", l.Job.ID)
		}
		if err := l.Ack([]byte("done-after-crash")); err != nil {
			t.Fatal(err)
		}
		finished++
	}
	if finished != total-len(acked) {
		t.Errorf("finished %d after crash, want %d", finished, total-len(acked))
	}
	for id := range acked {
		j, err := q2.Get(id)
		if err != nil || string(j.Result) != "done-before-crash" {
			t.Errorf("pre-crash verdict for %s = %q err %v", id, j.Result, err)
		}
	}
}

// TestEnqueueBounded checks that the unfinished-job bound holds exactly
// under concurrent producers (the check and the insert share one lock),
// that finished jobs free their slot, and that only a WAL-backed queue caps
// the payload size.
func TestEnqueueBounded(t *testing.T) {
	eachMode(t, func(t *testing.T, dir string) {
		const max, producers = 5, 16
		q := openQ(t, dir, fastOpts())
		var wg sync.WaitGroup
		var mu sync.Mutex
		accepted, full := 0, 0
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				err := q.EnqueueBounded(max, fmt.Sprintf("j%d", p), 0, nil, "")
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					accepted++
				case errors.Is(err, ErrFull):
					full++
				default:
					t.Errorf("enqueue j%d: %v", p, err)
				}
			}(p)
		}
		wg.Wait()
		if accepted != max || full != producers-max || q.Depth() != max {
			t.Fatalf("accepted %d, full %d, depth %d; want %d, %d, %d",
				accepted, full, q.Depth(), max, producers-max, max)
		}
		if err := mustLease(t, q, "w").Ack(nil); err != nil {
			t.Fatal(err)
		}
		if err := q.EnqueueBounded(max, "after-ack", 0, nil, ""); err != nil {
			t.Fatalf("enqueue after a job finished: %v", err)
		}

		big := make([]byte, maxRecordBytes/2+1)
		err := q.EnqueueBounded(0, "big", 0, big, "")
		if dir != "" && !errors.Is(err, ErrTooLarge) {
			t.Errorf("WAL queue took a %d-byte payload: %v", len(big), err)
		}
		if dir == "" && err != nil {
			t.Errorf("memory queue refused a %d-byte payload: %v", len(big), err)
		}
	})
}
