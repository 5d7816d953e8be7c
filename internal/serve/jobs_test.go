package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"jsrevealer/internal/obs"
	"jsrevealer/internal/scan"
)

// submitJob posts an NDJSON batch to /jobs and returns the accepted id.
func submitJob(t *testing.T, ts *httptest.Server, names ...string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/x-ndjson",
		strings.NewReader(ndjsonBatch(names...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs status = %d, want 202", resp.StatusCode)
	}
	var acc struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Scripts int    `json:"scripts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || acc.State != string(JobQueued) || acc.Scripts != len(names) {
		t.Fatalf("acceptance = %+v", acc)
	}
	return acc.ID
}

// pollJob polls GET /jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func TestJobLifecycle(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
	})
	id := submitJob(t, ts, "a.js", "evil-b.js", "c.js")
	v := pollJob(t, ts, id)
	if v.State != JobDone || v.Scripts != 3 || len(v.Results) != 3 {
		t.Fatalf("finished job = %+v", v)
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
	if v.StartedAt == nil || v.FinishedAt == nil {
		t.Error("finished job missing timestamps")
	}
	if n := reg.Counter(JobsMetric, "", obs.Labels{"event": "done"}).Value(); n != 1 {
		t.Errorf("jobs done counter = %d, want 1", n)
	}
	if g := reg.Gauge(JobsInflightMetric, "", nil).Value(); g != 0 {
		t.Errorf("jobs inflight gauge = %v, want 0", g)
	}

	// Unknown ids are a clean 404.
	resp, err := http.Get(ts.URL + "/jobs/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestJobStoreBoundsAndTTL: a backlog of MaxJobs unfinished jobs sheds
// new submissions; finished jobs expire after the TTL and then answer 410.
func TestJobStoreBoundsAndTTL(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	_, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": blockingClassifier(entered, release)}),
		MaxJobs:   1,
		JobTTL:    250 * time.Millisecond,
	})

	first := submitJob(t, ts, "a.js")
	<-entered // the job is running and parked

	// Backlog full of unfinished work: submission sheds as 429.
	resp, err := http.Post(ts.URL+"/jobs", "application/x-ndjson",
		strings.NewReader(ndjsonBatch("b.js")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into full backlog = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("job 429 without Retry-After")
	}

	close(release)
	if v := pollJob(t, ts, first); v.State != JobDone {
		t.Fatalf("first job state = %s", v.State)
	}

	// The finished job no longer counts against the bound.
	second := submitJob(t, ts, "c.js")
	if v := pollJob(t, ts, second); v.State != JobDone {
		t.Fatalf("second job state = %s", v.State)
	}

	// TTL expiry: once the TTL passes, the queue's reaper removes the job
	// and its id answers 410 with a JSON reason — while an id that never
	// existed stays a plain 404.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusGone {
			var goneBody struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&goneBody); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if goneBody.Reason != "expired" || goneBody.Error == "" {
				t.Errorf("410 body = %+v, want a JSON reason", goneBody)
			}
			break
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
	respNone, err := http.Get(ts.URL + "/jobs/feedfacecafebeef")
	if err != nil {
		t.Fatal(err)
	}
	respNone.Body.Close()
	if respNone.StatusCode != http.StatusNotFound {
		t.Errorf("never-existed job status = %d, want 404", respNone.StatusCode)
	}
}

// TestDrainWaitsForJobs: drain blocks until accepted jobs finish, timing
// out when they do not.
func TestDrainWaitsForJobs(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": blockingClassifier(entered, release)}),
	})
	id := submitJob(t, ts, "a.js")
	<-entered

	// The parked job holds the drain open past a short deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a parked job should time out")
	}

	// Released, the job finishes and a fresh drain completes.
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	if v := pollJob(t, ts, id); v.State != JobDone {
		t.Errorf("job state after drain = %s, want done", v.State)
	}
}

// TestJobScansSameBytesAsScan: a job scans exactly the bytes /scan does,
// in both queue modes — a source that is not valid UTF-8 keeps its bytes,
// and a batch near MaxBody that JSON would escape past the WAL record cap
// ('<' and '&' become six bytes each) is accepted and scanned.
func TestJobScansSameBytesAsScan(t *testing.T) {
	// Flags sources that are not valid UTF-8, so any coercion of the bytes
	// flips the verdict as well as the byte count.
	rawBytes := scan.ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return !utf8.ValidString(src), nil
	})
	const maxBody = 4 << 20

	var mp bytes.Buffer
	mw := multipart.NewWriter(&mp)
	for name, src := range map[string]string{
		"raw.js": "var s = '\xff\xfe<&';",
		"ok.js":  "var a = 1 < 2 && 3;",
	} {
		fw, err := mw.CreateFormFile("scripts", name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(fw, src)
	}
	mw.Close()
	big := `{"name":"big.js","source":"` + strings.Repeat("<&", (maxBody-64)/2) + "\"}\n"
	batches := []struct{ name, ctype, body string }{
		{"multipart", mw.FormDataContentType(), mp.String()},
		{"near-max-body", "application/x-ndjson", big},
	}

	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{
				ModelPath: "model",
				Loader:    stubLoader(map[string]scan.Classifier{"model": rawBytes}),
				MaxBody:   maxBody,
			}
			if mode == "durable" {
				cfg.QueueDir = t.TempDir()
			}
			_, ts, _ := newTestServer(t, cfg)
			for _, b := range batches {
				resp, err := http.Post(ts.URL+"/scan", b.ctype, strings.NewReader(b.body))
				if err != nil {
					t.Fatal(err)
				}
				want := decodeLines(t, resp.Body)
				resp.Body.Close()

				resp, err = http.Post(ts.URL+"/jobs", b.ctype, strings.NewReader(b.body))
				if err != nil {
					t.Fatal(err)
				}
				var acc struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&acc)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil {
					t.Fatalf("%s: /jobs status = %d (%v), want 202", b.name, resp.StatusCode, err)
				}
				v := pollJob(t, ts, acc.ID)
				if v.State != JobDone || len(v.Results) != len(want) {
					t.Fatalf("%s: job = %s with %d results, want done with %d", b.name, v.State, len(v.Results), len(want))
				}
				for _, got := range v.Results {
					w := want[got.Name]
					if got.Verdict != w.Verdict || got.Malicious != w.Malicious ||
						got.Bytes != w.Bytes || got.Tier != w.Tier {
						t.Errorf("%s: job line %+v, /scan line %+v", b.name, got, w)
					}
				}
			}
		})
	}
}

// TestBatchCodec: the job payload codec round-trips raw bytes, still reads
// the JSON record arrays earlier releases queued, and rejects damage.
func TestBatchCodec(t *testing.T) {
	srcs := []scan.Source{
		{Name: "raw.js", Content: "var s = '\xff\xfe<&\"\n';"},
		{Name: "", Content: ""},
		{Name: "big.js", Content: strings.Repeat("x", 300)},
	}
	p := encodeBatch(srcs)
	got, err := decodeBatch(p)
	if err != nil || len(got) != len(srcs) || batchLen(p) != len(srcs) {
		t.Fatalf("round trip: %d sources (batchLen %d), err %v", len(got), batchLen(p), err)
	}
	for i := range srcs {
		if got[i] != srcs[i] {
			t.Errorf("source %d = %q, want %q", i, got[i], srcs[i])
		}
	}

	legacy := []byte(`[{"name":"a.js","source":"var a=1;"},{"name":"b.js","source":"eval(x);"}]`)
	got, err = decodeBatch(legacy)
	if err != nil || batchLen(legacy) != 2 || len(got) != 2 ||
		got[1] != (scan.Source{Name: "b.js", Content: "eval(x);"}) {
		t.Errorf("legacy payload = %+v (batchLen %d), err %v", got, batchLen(legacy), err)
	}

	for name, bad := range map[string][]byte{
		"truncated": p[:len(p)-1],
		"trailing":  append(append([]byte(nil), p...), 0),
		"count":     {payloadV1, 0xff, 0xff, 0x03},
		"not json":  []byte("certainly not json"),
		"empty":     nil,
	} {
		if _, err := decodeBatch(bad); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}
