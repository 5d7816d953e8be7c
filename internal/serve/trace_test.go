package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/scan"
)

// getTrace fetches /debug/traces/{id}, polling briefly: the root span is
// recorded by a deferred End that can trail the response body by a moment.
func getTrace(t *testing.T, url, id string, wantSpans int) obs.Trace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var tr obs.Trace
		code := resp.StatusCode
		if code == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if code == http.StatusOK && len(tr.Spans) >= wantSpans {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: status %d, %d spans (want >= %d)", id, code, len(tr.Spans), wantSpans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// auditLines reads every record from the server's audit directory.
func auditLines(t *testing.T, s *Server, dir string) []audit.Record {
	t.Helper()
	if err := s.audit.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, audit.ActiveFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []audit.Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r audit.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestTraceparentRoundTrip is the tentpole's end-to-end contract: a scan
// submitted with a caller traceparent is retrievable from /debug/traces
// under the caller's trace id, with the serve root span and the engine's
// scan.file span linked into one waterfall, response headers echoing the
// trace, and a matching audit line carrying the same trace id and the
// content's SHA-256.
func TestTraceparentRoundTrip(t *testing.T) {
	auditDir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		AuditDir:  auditDir,
	})

	callerTrace := obs.NewTraceID()
	parent := obs.SpanContext{TraceID: callerTrace, SpanID: 0xabcdef, Sampled: true}
	req, _ := http.NewRequest("POST", ts.URL+"/scan", strings.NewReader(ndjsonBatch("evil-a.js")))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, resp.Body)
	resp.Body.Close()
	if len(lines) != 1 || !lines["evil-a.js"].Malicious {
		t.Fatalf("verdicts = %+v", lines)
	}

	// Response headers carry the joined trace and a request id.
	tp := resp.Header.Get("traceparent")
	if !strings.Contains(tp, callerTrace.String()) {
		t.Errorf("response traceparent %q does not carry caller trace %s", tp, callerTrace)
	}
	if resp.Header.Get("X-Request-Id") != callerTrace.String() {
		t.Errorf("X-Request-Id = %q, want the trace id", resp.Header.Get("X-Request-Id"))
	}

	// The waterfall: serve.scan root plus the engine's scan.file beneath it.
	tr := getTrace(t, ts.URL, callerTrace.String(), 2)
	if tr.Root != "serve.scan" {
		t.Errorf("trace root = %q, want serve.scan", tr.Root)
	}
	byName := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["serve.scan"]
	if !ok {
		t.Fatalf("no serve.scan span in %+v", tr.Spans)
	}
	if root.ParentID != obs.FormatSpanID(0xabcdef) {
		t.Errorf("root parent = %q, want the caller's span id", root.ParentID)
	}
	file, ok := byName["scan.file"]
	if !ok {
		t.Fatalf("no scan.file span in %+v", tr.Spans)
	}
	if file.ParentID != root.SpanID {
		t.Errorf("scan.file parent %q != serve.scan span %q", file.ParentID, root.SpanID)
	}

	// The audit line: same trace, right content digest, full provenance.
	recs := auditLines(t, s, auditDir)
	if len(recs) != 1 {
		t.Fatalf("got %d audit records, want 1", len(recs))
	}
	r := recs[0]
	sum := sha256.Sum256([]byte("evil();"))
	if r.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("audit sha = %s, want the script digest", r.SHA256)
	}
	if r.TraceID != callerTrace.String() {
		t.Errorf("audit trace id = %s, want %s", r.TraceID, callerTrace)
	}
	if r.Verdict != "MALICIOUS" || r.Tier != "pipeline" || r.Source != "scan" {
		t.Errorf("audit record = %+v", r)
	}
	if r.Model == "" {
		t.Error("audit record missing the model generation")
	}
	if r.RequestID != callerTrace.String() {
		t.Errorf("audit request id = %q", r.RequestID)
	}
}

// TestFreshTraceWithoutTraceparent: a request without caller trace context
// still gets a trace — minted server-side — and the /debug/traces listing
// shows it.
func TestFreshTraceWithoutTraceparent(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
	})
	resp, err := http.Post(ts.URL+"/scan", "application/x-ndjson",
		strings.NewReader(ndjsonBatch("a.js")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", resp.Header.Get("traceparent"))
	}
	tr := getTrace(t, ts.URL, sc.TraceID.String(), 2)
	if tr.Root != "serve.scan" {
		t.Errorf("root = %q", tr.Root)
	}

	var listing struct {
		Count  int                `json:"count"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	lresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if listing.Count < 1 || len(listing.Traces) < 1 {
		t.Errorf("listing = %+v, want at least the scan trace", listing)
	}
}

func TestTraceEndpointRejects(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for path, want := range map[string]int{
		"/debug/traces/not-hex":                     http.StatusBadRequest,
		"/debug/traces/" + strings.Repeat("ab", 16): http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// TraceBuffer < 0 disables retention entirely.
	_, tsOff, _ := newTestServer(t, Config{TraceBuffer: -1})
	resp, err := http.Get(tsOff.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /debug/traces = %d, want 404", resp.StatusCode)
	}
}

// TestErrorBodiesCarryRequestID: every error answer (429 from admission,
// 413 from the body cap, 503 while draining, 410 for evicted jobs) names
// the request id — the caller-supplied X-Request-Id when present, the
// trace id otherwise.
func TestErrorBodiesCarryRequestID(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		MaxBody:    128,
		RatePerSec: 0.001, Burst: 1, // second request within the window is shed
	})

	errBody := func(t *testing.T, resp *http.Response) map[string]string {
		t.Helper()
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	// 413: over the body cap, with a caller-supplied request id echoed.
	big := `{"name":"big.js","source":"` + strings.Repeat("x", 512) + `"}`
	req, _ := http.NewRequest("POST", ts.URL+"/scan", strings.NewReader(big))
	req.Header.Set("X-Request-Id", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d", resp.StatusCode)
	}
	if body := errBody(t, resp); body["request_id"] != "caller-chose-this" {
		t.Errorf("413 body = %v, want the caller's request id", body)
	}
	if resp.Header.Get("X-Request-Id") != "caller-chose-this" {
		t.Errorf("413 X-Request-Id header = %q", resp.Header.Get("X-Request-Id"))
	}

	// 429: the token bucket is spent; the body still names a request id.
	resp, err = http.Post(ts.URL+"/scan", "application/x-ndjson", strings.NewReader(ndjsonBatch("a.js")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited status = %d, want 429", resp.StatusCode)
	}
	if body := errBody(t, resp); body["request_id"] == "" {
		t.Error("429 body has no request_id")
	}

	// 503: draining.
	s.draining.Store(true)
	resp, err = http.Post(ts.URL+"/scan", "application/x-ndjson", strings.NewReader(ndjsonBatch("a.js")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if body := errBody(t, resp); body["request_id"] == "" {
		t.Error("503 body has no request_id")
	}
	s.draining.Store(false)
}

// TestInMemoryJobAudited: the async in-memory job path stamps its verdicts
// with job provenance — source "jobs" and the job id.
func TestInMemoryJobAudited(t *testing.T) {
	auditDir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		ModelPath: "model",
		Loader:    stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		AuditDir:  auditDir,
	})
	id := submitJob(t, ts, "evil-a.js")
	if v := pollJob(t, ts, id); v.State != JobDone {
		t.Fatalf("job = %+v", v)
	}
	recs := auditLines(t, s, auditDir)
	if len(recs) != 1 {
		t.Fatalf("got %d audit records, want 1", len(recs))
	}
	if recs[0].Source != "jobs" || recs[0].Job != id || recs[0].Verdict != "MALICIOUS" {
		t.Errorf("job audit record = %+v", recs[0])
	}
	if recs[0].TraceID == "" {
		t.Error("job audit record has no trace id")
	}
}

// TestDurableTraceSurvivesRestart: the traceparent persisted in a durable
// job's WAL record means a job re-delivered after kill -9 still joins the
// submitting request's trace — the restarted process's job.run span carries
// the original trace id even though that request hit a process that no
// longer exists.
func TestDurableTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": selectiveBlock(entered, release)}),
		QueueDir:   dir,
		JobWorkers: 1,
		QueueLease: 200 * time.Millisecond,
	}
	s1, ts1, _ := newTestServer(t, cfg)

	// Submit a traced job that parks mid-scan on the only worker.
	callerTrace := obs.NewTraceID()
	parent := obs.SpanContext{TraceID: callerTrace, SpanID: 0x1234, Sampled: true}
	req, _ := http.NewRequest("POST", ts1.URL+"/jobs",
		strings.NewReader(`{"name":"stuck.js","source":"block(); evil();"}`+"\n"))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs status = %d, want 202", resp.StatusCode)
	}
	<-entered

	// kill -9, then restart over the same queue directory.
	s1.q.Abandon()
	close(release)
	ts1.Close()
	cfg2 := cfg
	cfg2.Loader = stubLoader(map[string]scan.Classifier{"model": flagEvil})
	_, ts2, _ := newTestServer(t, cfg2)

	v := pollJob(t, ts2, acc.ID)
	if v.State != JobDone || len(v.Results) != 1 || !v.Results[0].Malicious {
		t.Fatalf("redelivered job = %+v", v)
	}

	// The second process never saw the original request, yet its worker
	// spans live under the caller's trace id.
	tr := getTrace(t, ts2.URL, callerTrace.String(), 2)
	byName := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	run, ok := byName["job.run"]
	if !ok {
		t.Fatalf("no job.run span in post-restart trace: %+v", tr.Spans)
	}
	attrs := map[string]string{}
	for _, a := range run.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["job"] != acc.ID {
		t.Errorf("job.run attrs = %v, want job=%s", attrs, acc.ID)
	}
	if attrs["attempt"] != "1" {
		t.Errorf("job.run attempt attr = %q, want 1 (the crash consumed a delivery)", attrs["attempt"])
	}
	if file, ok := byName["scan.file"]; !ok {
		t.Errorf("no scan.file span under the re-delivered job: %+v", tr.Spans)
	} else if file.ParentID != run.SpanID {
		t.Errorf("scan.file parent %q != job.run span %q", file.ParentID, run.SpanID)
	}
}

// TestRejectsAndEvictionsAudited: shed load leaves audit lines too — a
// rate-limit rejection and an evicted-job poll are both recorded with kind
// and provenance.
func TestRejectsAndEvictionsAudited(t *testing.T) {
	auditDir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{
		ModelPath:  "model",
		Loader:     stubLoader(map[string]scan.Classifier{"model": flagEvil}),
		AuditDir:   auditDir,
		RatePerSec: 0.001, Burst: 1,
	})
	// Request 1 passes (and audits its verdict); request 2 is rate-limited.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/scan", "application/x-ndjson", strings.NewReader(ndjsonBatch("a.js")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	recs := auditLines(t, s, auditDir)
	var reject *audit.Record
	for i := range recs {
		if recs[i].Kind == "reject" {
			reject = &recs[i]
		}
	}
	if reject == nil {
		t.Fatalf("no reject record in %+v", recs)
	}
	if reject.Reason != "rate_limited" || reject.Source != "scan" || reject.TraceID == "" {
		t.Errorf("reject record = %+v", reject)
	}
}
