package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jsrevealer/internal/obs"
	"jsrevealer/internal/queue"
	"jsrevealer/internal/scan"
)

// selectiveBlock parks classifications of sources containing "block" until
// release is closed (signalling each arrival on entered) and flags sources
// containing "evil"; everything else classifies immediately. Unlike
// blockingClassifier it leaves other jobs free to finish, which the
// crash-restart choreography needs.
func selectiveBlock(entered chan<- struct{}, release <-chan struct{}) scan.Classifier {
	return scan.ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		if strings.Contains(src, "block") {
			entered <- struct{}{}
			<-release
		}
		return strings.Contains(src, "evil"), nil
	})
}

// postBatch submits a raw NDJSON body to /jobs and returns the accepted id.
func postBatch(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs status = %d, want 202", resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

func TestDurableJobLifecycle(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		QueueDir:  t.TempDir(),
	})
	id := submitJob(t, ts, "a.js", "evil-b.js", "c.js")
	v := pollJob(t, ts, id)
	if v.State != JobDone || v.Scripts != 3 || len(v.Results) != 3 {
		t.Fatalf("finished durable job = %+v", v)
	}
	flagged := 0
	for _, r := range v.Results {
		if r.Malicious {
			flagged++
		}
	}
	if flagged != 1 {
		t.Errorf("flagged %d of 3, want 1", flagged)
	}
	if v.Attempt != 0 {
		t.Errorf("attempt = %d, want 0 (no failed deliveries)", v.Attempt)
	}
	if v.StartedAt == nil || v.FinishedAt == nil {
		t.Error("finished durable job missing timestamps")
	}
	if n := reg.Counter(JobsMetric, "", obs.Labels{"event": "done"}).Value(); n != 1 {
		t.Errorf("jobs done counter = %d, want 1", n)
	}
	if n := reg.Counter(queue.EnqueuedMetric, "", nil).Value(); n != 1 {
		t.Errorf("queue enqueued counter = %d, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/jobs/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown durable job status = %d, want 404", resp.StatusCode)
	}
}

// TestDurableJobsSurviveRestart is the ISSUE's kill -9 contract, in
// process: a server dies mid-batch via queue.Abandon (nothing flushed or
// cleaned up), a fresh server opens the same directory, and (a) verdicts
// committed before the crash are preserved verbatim, (b) the job that was
// mid-run is redelivered and finishes exactly once, (c) a job still queued
// at crash time completes.
func TestDurableJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": selectiveBlock(entered, release)}),
		QueueDir:   dir,
		JobWorkers: 1, // one worker, so the blocked job pins the queue
		QueueLease: 200 * time.Millisecond,
	}
	s1, ts1, _ := newTestServer(t, cfg)

	// One job completes before the crash; its verdicts must survive it.
	idDone := submitJob(t, ts1, "a.js", "evil-b.js")
	vDone := pollJob(t, ts1, idDone)
	if vDone.State != JobDone || len(vDone.Results) != 2 {
		t.Fatalf("pre-crash job = %+v", vDone)
	}

	// One job parks mid-scan; one more queues behind it.
	idBlocked := postBatch(t, ts1, `{"name":"stuck.js","source":"block();"}`+"\n")
	<-entered
	idQueued := submitJob(t, ts1, "evil-c.js")

	// kill -9: no drain, no flush, no cleanup.
	s1.q.Abandon()
	close(release)
	ts1.Close()

	// Restart over the same directory, with a classifier that does not
	// block so the redelivered job can finish.
	cfg2 := cfg
	cfg2.Loader = stubLoader(map[string]scan.Classifier{"model": flagEvil})
	_, ts2, reg2 := newTestServer(t, cfg2)

	// (a) The finished job's verdicts were never re-scanned: still 2 lines,
	// still exactly one malicious.
	vKept := pollJob(t, ts2, idDone)
	if vKept.State != JobDone || len(vKept.Results) != 2 {
		t.Fatalf("post-crash finished job = %+v", vKept)
	}
	flagged := 0
	for _, r := range vKept.Results {
		if r.Malicious {
			flagged++
		}
	}
	if flagged != 1 {
		t.Errorf("preserved job flags %d of 2, want 1", flagged)
	}

	// (b) The mid-run job is redelivered — the crashed delivery counts
	// against its budget — and emits its verdict exactly once.
	vBlocked := pollJob(t, ts2, idBlocked)
	if vBlocked.State != JobDone || len(vBlocked.Results) != 1 {
		t.Fatalf("redelivered job = %+v", vBlocked)
	}
	if vBlocked.Attempt != 1 {
		t.Errorf("redelivered job attempt = %d, want 1 (the crash consumed one)", vBlocked.Attempt)
	}

	// (c) The job accepted-but-unstarted at crash time completes.
	vQueued := pollJob(t, ts2, idQueued)
	if vQueued.State != JobDone || len(vQueued.Results) != 1 || !vQueued.Results[0].Malicious {
		t.Fatalf("queued-at-crash job = %+v", vQueued)
	}

	if n := reg2.Counter(queue.RecoveredMetric, "", nil).Value(); n < 2 {
		t.Errorf("recovered counter = %d, want >= 2 (mid-run + queued)", n)
	}
}

// TestDurablePoisonDeadLetters: a job whose payload can never be decoded
// burns its delivery budget and lands in dead-letter, surfaced to polls as
// a failed job with its last error.
func TestDurablePoisonDeadLetters(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{
		ModelPath:        "model",
		Loader:           stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		QueueDir:         t.TempDir(),
		QueueMaxAttempts: 2,
	})
	// Inject the poison below the HTTP layer: the submit path can only
	// produce well-formed payloads.
	if err := s.q.Enqueue("poison", 0, []byte("certainly not json")); err != nil {
		t.Fatal(err)
	}
	v := pollJob(t, ts, "poison")
	if v.State != JobFailed {
		t.Fatalf("poison job state = %s, want failed", v.State)
	}
	if v.Attempt != 2 {
		t.Errorf("poison job attempt = %d, want 2", v.Attempt)
	}
	if !strings.Contains(v.Error, "undecodable payload") {
		t.Errorf("poison job error = %q", v.Error)
	}
	if n := reg.Counter(queue.DeadLetterMetric, "", nil).Value(); n != 1 {
		t.Errorf("dead letter counter = %d, want 1", n)
	}
	if n := reg.Counter(queue.RetriesMetric, "", nil).Value(); n != 1 {
		t.Errorf("retries counter = %d, want 1", n)
	}
}

// TestDurableBacklogWatermark: once the durable backlog (pending + leased)
// reaches the watermark, admission sheds new work with 429 and Retry-After
// until the workers catch up.
func TestDurableBacklogWatermark(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	_, ts, reg := newTestServer(t, Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": selectiveBlock(entered, release)}),
		QueueDir:   t.TempDir(),
		JobWorkers: 1,
		MaxJobs:    1,
	})

	first := postBatch(t, ts, `{"name":"stuck.js","source":"block();"}`+"\n")
	<-entered // leased: depth 1 == watermark

	resp, err := http.Post(ts.URL+"/jobs", "application/x-ndjson",
		strings.NewReader(ndjsonBatch("b.js")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past watermark = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("backlog 429 without Retry-After")
	}
	if n := reg.Counter(AdmissionRejectsMetric, "", obs.Labels{"reason": "backlog"}).Value(); n != 1 {
		t.Errorf("backlog reject counter = %d, want 1", n)
	}

	// Caught up, admission opens again.
	close(release)
	if v := pollJob(t, ts, first); v.State != JobDone {
		t.Fatalf("first job state = %s", v.State)
	}
	second := submitJob(t, ts, "c.js")
	if v := pollJob(t, ts, second); v.State != JobDone {
		t.Fatalf("second job state = %s", v.State)
	}
}

// TestDurableResultTTLAnswers410: after the result TTL the reaper removes
// a finished durable job, and polls for its id answer 410 Gone — not the
// 404 reserved for ids that never existed.
func TestDurableResultTTLAnswers410(t *testing.T) {
	if testing.Short() {
		t.Skip("waits for the reaper's 1s scan period")
	}
	_, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		QueueDir:  t.TempDir(),
		JobTTL:    50 * time.Millisecond,
	})
	id := submitJob(t, ts, "a.js")
	if v := pollJob(t, ts, id); v.State != JobDone {
		t.Fatalf("job state = %s", v.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			var body struct {
				Reason string `json:"reason"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if body.Reason != "expired" {
				t.Errorf("410 reason = %q, want expired", body.Reason)
			}
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d before expiry turned 410", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired to 410")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDurableDrainKeepsQueuedJobs: drain waits only for leases held by
// this process; jobs still queued stay in the WAL for the next start
// instead of holding shutdown open.
func TestDurableDrainKeepsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": selectiveBlock(entered, release)}),
		QueueDir:   dir,
		JobWorkers: 1,
	}
	s1, ts1, _ := newTestServer(t, cfg)
	postBatch(t, ts1, `{"name":"stuck.js","source":"block();"}`+"\n")
	<-entered
	idQueued := submitJob(t, ts1, "a.js")

	// The held lease pins a short drain open...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s1.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a held lease should time out")
	}
	// ...but once it finishes, drain completes even though a job is still
	// queued.
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s1.Drain(ctx2); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	s1.Close()
	ts1.Close()

	// The queued job is still there for the next process.
	cfg2 := cfg
	cfg2.Loader = stubLoader(map[string]scan.Classifier{"model": flagEvil})
	_, ts2, _ := newTestServer(t, cfg2)
	if v := pollJob(t, ts2, idQueued); v.State != JobDone || len(v.Results) != 1 {
		t.Fatalf("queued-across-drain job = %+v", v)
	}
}
