package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"jsrevealer/internal/obs"
	"jsrevealer/internal/scan"
)

// benchServer serves a near-free classifier with the verdict cache off, so
// the serving benchmarks track the subsystem itself rather than model
// inference, and returns the test server plus a 16-script NDJSON batch.
func benchServer(b *testing.B) (*httptest.Server, string) {
	instant := scan.ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return strings.Contains(src, "evil"), nil
	})
	s, err := New(Config{
		ModelPath: "model",
		Loader: func(string) (scan.Classifier, string, error) {
			return instant, "bench", nil
		},
		Scan: scan.Config{CacheSize: -1},
	}, obs.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)

	var batch strings.Builder
	for i := 0; i < 16; i++ {
		src := fmt.Sprintf("var v%d = %d; function f%d(){ return v%d * 2; }", i, i, i, i)
		if i%4 == 0 {
			src += " evil();"
		}
		fmt.Fprintf(&batch, "{\"name\":\"s%d.js\",\"source\":%q}\n", i, src)
	}
	return ts, batch.String()
}

// BenchmarkServeScanBatch measures the serving layer's per-batch overhead —
// admission, NDJSON parse, worker fan-out, and streamed encoding.
func BenchmarkServeScanBatch(b *testing.B) {
	ts, body := benchServer(b)
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/scan", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServeJobRoundTrip measures the async write path end to end: POST
// /jobs with a 16-script batch, then poll GET /jobs/{id} until the job is
// done — submission, queueing, a worker's lease, scan and commit, and the
// polls in between.
func BenchmarkServeJobRoundTrip(b *testing.B) {
	ts, body := benchServer(b)
	client := ts.Client()

	polls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/jobs", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var acc struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
		}
		for {
			polls++
			resp, err := client.Get(ts.URL + "/jobs/" + acc.ID)
			if err != nil {
				b.Fatal(err)
			}
			var v JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if v.State == JobDone {
				break
			}
			if v.State == JobFailed {
				b.Fatalf("job failed: %s", v.Error)
			}
		}
	}
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}
