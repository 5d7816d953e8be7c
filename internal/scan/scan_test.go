package scan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jsrevealer/internal/core"
	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
)

// trainedDetector builds one small shared detector for the whole package;
// training is the expensive part, so every test reuses it.
var (
	detOnce sync.Once
	detVal  *core.Detector
	detErr  error
	// detSamples holds labelled training scripts whose verdicts a
	// random-forest detector reproduces reliably.
	detSamples []core.Sample
)

func trainedDetector(t testing.TB) (*core.Detector, []core.Sample) {
	t.Helper()
	detOnce.Do(func() {
		samples := corpus.Generate(corpus.Config{Benign: 40, Malicious: 40, Seed: 11})
		detSamples = make([]core.Sample, len(samples))
		for i, s := range samples {
			detSamples[i] = core.Sample{Source: s.Source, Malicious: s.Malicious}
		}
		opts := core.DefaultOptions()
		opts.Seed = 11
		opts.Embedding.Seed = 11
		opts.Embedding.Dim = 24
		opts.Embedding.Epochs = 5
		opts.Path.MaxPaths = 400
		opts.MaxPoolPerClass = 800
		detVal, detErr = core.Train(detSamples, nil, opts)
	})
	if detErr != nil {
		t.Fatalf("Train: %v", detErr)
	}
	return detVal, detSamples
}

// slowMarker makes the wrapped classifier block until the per-file deadline
// expires, simulating a timeout-inducing sample deterministically.
const slowMarker = "/*@scan-test-slow@*/"

// markedSlow wraps a real detector as a BatchClassifier: scripts carrying
// slowMarker hang in PrepareBatch until cancelled (as a pathological input
// would); everything else runs the detector's own prepare and classify
// under the engine's limits.
type markedSlow struct{ det *core.Detector }

// DetectCtx satisfies Classifier; the engine drives the batch methods.
func (m *markedSlow) DetectCtx(ctx context.Context, src string) (bool, error) {
	return m.det.DetectCtx(ctx, src)
}

func (m *markedSlow) PrepareBatch(ctx context.Context, src string, lim parser.Limits) (any, error) {
	if strings.Contains(src, slowMarker) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return m.det.PrepareBatch(ctx, src, lim)
}

func (m *markedSlow) ClassifyBatch(ctx context.Context, prepared []any) ([]bool, error) {
	return m.det.ClassifyBatch(ctx, prepared)
}

// TestScanPathologicalDirectory is the acceptance scenario: one directory
// holding healthy files, a crash-inducing deeply nested file, an oversized
// file, and a timeout-inducing file. The scan must complete with correct
// verdicts for the healthy files and structured Degraded results for the
// pathological ones.
func TestScanPathologicalDirectory(t *testing.T) {
	det, samples := trainedDetector(t)
	dir := t.TempDir()

	// Healthy files: training scripts the random forest reproduces.
	wantHealthy := map[string]bool{}
	healthy := 0
	for _, s := range samples {
		name := fmt.Sprintf("healthy-%d.js", healthy)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(s.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		wantHealthy[filepath.Join(dir, name)] = s.Malicious
		healthy++
		if healthy == 6 {
			break
		}
	}

	// Crash-inducing: 60k-deep nested parentheses would overflow the stack
	// without the parser depth guard.
	deep := filepath.Join(dir, "deep.js")
	if err := os.WriteFile(deep,
		[]byte("var x = "+strings.Repeat("(", 60000)+"1"+strings.Repeat(")", 60000)+";"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Oversized: beyond the engine's MaxBytes (but parseable, so only the
	// size guard degrades it).
	big := filepath.Join(dir, "big.js")
	if err := os.WriteFile(big,
		[]byte("var filler = 0;\n"+strings.Repeat("filler = filler + 1;\n", 20000)), 0o644); err != nil {
		t.Fatal(err)
	}
	// deep.js is ~120KB and big.js ~420KB: the 256KB cap catches only the
	// latter, so the depth guard (not the size guard) degrades deep.js.

	// Timeout-inducing: the marker makes the classifier hang until the
	// per-file deadline fires.
	slow := filepath.Join(dir, "slow.js")
	if err := os.WriteFile(slow, []byte(slowMarker+"\nvar a = 1;"), 0o644); err != nil {
		t.Fatal(err)
	}

	eng := New(&markedSlow{det: det}, Config{
		Workers:  4,
		Timeout:  time.Second,
		MaxBytes: 256 << 10,
	})
	results, stats, err := eng.ScanDir(context.Background(), dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if stats.Scanned != healthy+3 {
		t.Fatalf("scanned %d files, want %d", stats.Scanned, healthy+3)
	}

	byPath := map[string]Result{}
	for _, r := range results {
		byPath[r.Path] = r
	}
	for path, wantMal := range wantHealthy {
		r := byPath[path]
		if r.Err != nil {
			t.Errorf("%s: unexpected error %v", path, r.Err)
		}
		if r.Malicious != wantMal {
			t.Errorf("%s: verdict %v, want malicious=%v", path, r.Verdict, wantMal)
		}
	}
	for path, wantErr := range map[string]error{
		deep: ErrDepthLimit,
		big:  ErrTooLarge,
		slow: ErrTimeout,
	} {
		r := byPath[path]
		if r.Verdict != VerdictDegraded {
			t.Errorf("%s: verdict %v, want DEGRADED (err %v)", path, r.Verdict, r.Err)
		}
		if !errors.Is(r.Err, wantErr) {
			t.Errorf("%s: error %v, want %v", path, r.Err, wantErr)
		}
	}
	if stats.Degraded != 3 {
		t.Errorf("stats.Degraded = %d, want 3", stats.Degraded)
	}
	if stats.Failed != 0 {
		t.Errorf("stats.Failed = %d, want 0", stats.Failed)
	}
	if stats.P50 > stats.P99 {
		t.Errorf("latency percentiles inverted: p50=%v p99=%v", stats.P50, stats.P99)
	}
}

func TestPanicIsolation(t *testing.T) {
	boom := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		panic("pipeline exploded")
	})

	eng := New(boom, Config{Workers: 2})
	res := eng.ScanSource(context.Background(), "boom.js", "var a = 1;")
	if res.Verdict != VerdictDegraded {
		t.Fatalf("verdict %v, want DEGRADED", res.Verdict)
	}
	if !errors.Is(res.Err, ErrInternal) {
		t.Fatalf("error %v, want ErrInternal", res.Err)
	}

	// With the fallback disabled the panic surfaces as a Failed result —
	// still never as a crash.
	eng = New(boom, Config{NoFallback: true})
	res = eng.ScanSource(context.Background(), "boom.js", "var a = 1;")
	if res.Verdict != VerdictFailed || !errors.Is(res.Err, ErrInternal) {
		t.Fatalf("verdict %v err %v, want FAILED/ErrInternal", res.Verdict, res.Err)
	}
}

func TestParseFailureDegrades(t *testing.T) {
	det, _ := trainedDetector(t)
	eng := New(det, Config{})

	res := eng.ScanSource(context.Background(), "broken.js", "var = = ;;;(")
	if res.Verdict != VerdictDegraded {
		t.Fatalf("verdict %v, want DEGRADED", res.Verdict)
	}
	if !errors.Is(res.Err, ErrParse) {
		t.Fatalf("error %v, want ErrParse", res.Err)
	}
}

func TestTokenLimitMapsToTooLarge(t *testing.T) {
	det, _ := trainedDetector(t)
	eng := New(det, Config{MaxTokens: 64})
	res := eng.ScanSource(context.Background(), "many.js",
		strings.Repeat("var a = 1;\n", 100))
	if res.Verdict != VerdictDegraded || !errors.Is(res.Err, ErrTooLarge) {
		t.Fatalf("verdict %v err %v, want DEGRADED/ErrTooLarge", res.Verdict, res.Err)
	}
}

func TestScanDirAggregatesUnreadableEntries(t *testing.T) {
	det, _ := trainedDetector(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok.js"), []byte("var a = 1;"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A dangling symlink is unreadable on every platform and for every
	// privilege level; the walk must aggregate it, not abort.
	if err := os.Symlink(filepath.Join(dir, "missing-target"), filepath.Join(dir, "dangling.js")); err != nil {
		t.Skipf("symlink unsupported: %v", err)
	}

	eng := New(det, Config{})
	results, stats, err := eng.ScanDir(context.Background(), dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if stats.Scanned != 2 {
		t.Fatalf("scanned %d, want 2", stats.Scanned)
	}
	if stats.Failed != 1 {
		t.Fatalf("failed %d, want 1 (dangling symlink)", stats.Failed)
	}
	for _, r := range results {
		if strings.HasSuffix(r.Path, "dangling.js") {
			if r.Verdict != VerdictFailed || !errors.Is(r.Err, ErrInternal) {
				t.Errorf("dangling.js: verdict %v err %v", r.Verdict, r.Err)
			}
		}
	}
}

func TestScanFilesPreservesInputOrder(t *testing.T) {
	det, samples := trainedDetector(t)
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 8; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%d.js", i))
		if err := os.WriteFile(p, []byte(samples[i%len(samples)].Source), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	eng := New(det, Config{Workers: 4})
	results, stats := eng.ScanFiles(context.Background(), paths)
	if len(results) != len(paths) {
		t.Fatalf("%d results, want %d", len(results), len(paths))
	}
	for i, r := range results {
		if r.Path != paths[i] {
			t.Errorf("result %d is %s, want %s", i, r.Path, paths[i])
		}
	}
	if stats.Scanned != len(paths) {
		t.Errorf("scanned %d, want %d", stats.Scanned, len(paths))
	}
}

func TestScanSourcesStreamsResults(t *testing.T) {
	flagEvil := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return strings.Contains(src, "evil"), nil
	})
	eng := New(flagEvil, Config{Workers: 4, CacheSize: -1})
	srcs := []Source{
		{Name: "a.js", Content: "var a = 1;"},
		{Name: "b.js", Content: "evil();"},
		{Name: "c.js", Content: "var c = 3;"},
		{Name: "d.js", Content: "evil(evil());"},
	}
	var mu sync.Mutex
	emitted := make(map[string]Result)
	stats := eng.ScanSources(context.Background(), srcs, func(r Result) {
		mu.Lock()
		emitted[r.Path] = r
		mu.Unlock()
	})
	if len(emitted) != len(srcs) {
		t.Fatalf("emitted %d results, want %d", len(emitted), len(srcs))
	}
	for _, s := range srcs {
		r, ok := emitted[s.Name]
		if !ok {
			t.Fatalf("no result emitted for %s", s.Name)
		}
		wantMal := strings.Contains(s.Content, "evil")
		if r.Malicious != wantMal || r.Err != nil {
			t.Errorf("%s: malicious=%v err=%v, want malicious=%v", s.Name, r.Malicious, r.Err, wantMal)
		}
	}
	if stats.Scanned != len(srcs) || stats.Flagged != 2 {
		t.Errorf("stats = %+v, want Scanned=%d Flagged=2", stats, len(srcs))
	}
}

func TestScanSourcesCancelled(t *testing.T) {
	eng := New(ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return false, nil
	}), Config{Workers: 2, CacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n int64
	stats := eng.ScanSources(ctx, []Source{{Name: "x.js"}, {Name: "y.js"}}, func(r Result) {
		atomic.AddInt64(&n, 1)
		if r.Verdict != VerdictFailed || !errors.Is(r.Err, ErrTimeout) {
			t.Errorf("%s: verdict %v err %v, want FAILED/ErrTimeout", r.Path, r.Verdict, r.Err)
		}
	})
	if n != 2 || stats.Failed != 2 {
		t.Errorf("emitted %d, stats %+v; want 2 failed results", n, stats)
	}
}

func TestEngineCancellation(t *testing.T) {
	det, _ := trainedDetector(t)
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%d.js", i))
		if err := os.WriteFile(p, []byte("var a = 1;"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the scan starts
	eng := New(det, Config{Workers: 2})
	results, stats := eng.ScanFiles(ctx, paths)
	if len(results) != len(paths) {
		t.Fatalf("%d results, want %d", len(results), len(paths))
	}
	for _, r := range results {
		if r.Verdict != VerdictFailed || !errors.Is(r.Err, ErrTimeout) {
			t.Errorf("%s: verdict %v err %v, want FAILED/ErrTimeout", r.Path, r.Verdict, r.Err)
		}
	}
	if stats.Failed != len(paths) {
		t.Errorf("failed %d, want %d", stats.Failed, len(paths))
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictBenign:    "benign",
		VerdictMalicious: "MALICIOUS",
		VerdictDegraded:  "DEGRADED",
		VerdictFailed:    "FAILED",
		Verdict(42):      "Verdict(42)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

// TestStatsTaxonomyAndScanMetrics scans a directory holding one file per
// taxonomy class and checks both views of the outcome: the per-reason Stats
// counts and the metric series landing in the context's registry.
func TestStatsTaxonomyAndScanMetrics(t *testing.T) {
	det, samples := trainedDetector(t)
	dir := t.TempDir()
	files := map[string]string{
		"good.js":   samples[0].Source,
		"broken.js": "var = = ;;;(",
		"deep.js":   "var x = " + strings.Repeat("(", 60000) + "1" + strings.Repeat(")", 60000) + ";",
		"big.js":    "var filler = 0;\n" + strings.Repeat("filler = filler + 1;\n", 20000),
		"slow.js":   slowMarker + "\nvar a = 1;",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(&markedSlow{det: det}, Config{
		Workers:  2,
		Timeout:  time.Second,
		MaxBytes: 256 << 10, // catches big.js (~420KB), passes deep.js (~120KB)
	})
	_, stats, err := eng.ScanDir(ctx, dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}

	want := Stats{ParseErrors: 1, Timeouts: 1, TooLarge: 1, DepthLimit: 1, Internal: 0}
	if stats.ParseErrors != want.ParseErrors || stats.Timeouts != want.Timeouts ||
		stats.TooLarge != want.TooLarge || stats.DepthLimit != want.DepthLimit ||
		stats.Internal != want.Internal {
		t.Errorf("taxonomy counts = %+v", stats)
	}
	if sum := stats.ParseErrors + stats.Timeouts + stats.TooLarge +
		stats.DepthLimit + stats.Internal; sum != stats.Degraded+stats.Failed {
		t.Errorf("taxonomy sum %d != degraded+failed %d", sum, stats.Degraded+stats.Failed)
	}

	// Every finished file must land in the duration and queue-wait
	// histograms of the scan context's registry.
	if n := reg.Histogram(FileDurationMetric, "", nil, nil).Count(); n != uint64(len(files)) {
		t.Errorf("duration observations = %d, want %d", n, len(files))
	}
	if n := reg.Histogram(QueueWaitMetric, "", nil, nil).Count(); n != uint64(len(files)) {
		t.Errorf("queue-wait observations = %d, want %d", n, len(files))
	}
	for reason, want := range map[string]int64{
		"parse": 1, "timeout": 1, "too_large": 1, "depth_limit": 1, "internal": 0,
	} {
		c := reg.Counter(ErrorsMetric, "", obs.Labels{"reason": reason})
		if c.Value() != want {
			t.Errorf("errors{reason=%q} = %d, want %d", reason, c.Value(), want)
		}
	}
	var verdictTotal int64
	for _, label := range verdictLabels {
		verdictTotal += reg.Counter(FilesMetric, "", obs.Labels{"verdict": label}).Value()
	}
	if verdictTotal != int64(len(files)) {
		t.Errorf("verdict counter total = %d, want %d", verdictTotal, len(files))
	}
	if b := reg.Counter(BytesMetric, "", nil).Value(); b <= 0 {
		t.Errorf("bytes counter = %d, want > 0", b)
	}
	if g := reg.Gauge(InflightMetric, "", nil).Value(); g != 0 {
		t.Errorf("inflight gauge = %v after scan, want 0", g)
	}
}

func TestReason(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("wrap: %w", ErrParse), "parse"},
		{fmt.Errorf("wrap: %w", ErrDepthLimit), "depth_limit"},
		{fmt.Errorf("wrap: %w", ErrTimeout), "timeout"},
		{fmt.Errorf("wrap: %w", ErrTooLarge), "too_large"},
		{fmt.Errorf("wrap: %w", ErrInternal), "internal"},
		{errors.New("outside the taxonomy"), "internal"},
	} {
		if got := Reason(c.err); got != c.want {
			t.Errorf("Reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// BenchmarkScanSource measures the per-file hot path of the engine,
// instrument accounting included. The verdict cache is disabled so every
// iteration pays the full pipeline — the comparable cached path is
// BenchmarkScanSourceCachedRescan.
func BenchmarkScanSource(b *testing.B) {
	det, samples := trainedDetector(b)
	eng := New(det, Config{CacheSize: -1})
	src := samples[0].Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.ScanSource(context.Background(), "bench.js", src); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkScanFiles measures the concurrent engine over a small directory
// tree with the default worker pool.
func BenchmarkScanFiles(b *testing.B) {
	det, samples := trainedDetector(b)
	dir := b.TempDir()
	var paths []string
	for i := 0; i < 16; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%d.js", i))
		if err := os.WriteFile(p, []byte(samples[i%len(samples)].Source), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
	}
	eng := New(det, Config{Workers: 4, CacheSize: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := eng.ScanFiles(context.Background(), paths)
		if stats.Failed != 0 {
			b.Fatalf("%d files failed", stats.Failed)
		}
	}
}

// BenchmarkScanSourceCachedRescan measures rescanning content the engine has
// already classified: one cold scan primes the verdict cache, then every
// iteration is a cache hit (hash + LRU lookup + instrument accounting).
func BenchmarkScanSourceCachedRescan(b *testing.B) {
	det, samples := trainedDetector(b)
	eng := New(det, Config{})
	src := samples[0].Source
	if res := eng.ScanSource(context.Background(), "prime.js", src); res.Err != nil {
		b.Fatal(res.Err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.ScanSource(context.Background(), "bench.js", src); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func TestClassifyErrorTaxonomy(t *testing.T) {
	bg := context.Background()
	expired, cancel := context.WithTimeout(bg, 0)
	defer cancel()
	<-expired.Done()

	cases := []struct {
		name string
		in   error
		ctx  context.Context
		want error
	}{
		{"nil", nil, bg, nil},
		{"depth", fmt.Errorf("wrap: %w", parser.ErrTooDeep), bg, ErrDepthLimit},
		{"cancel", parser.ErrCancelled, bg, ErrTimeout},
		{"deadline", context.DeadlineExceeded, bg, ErrTimeout},
		{"late-surfacing", errors.New("stage gave up"), expired, ErrTimeout},
		{"parse", &parser.ParseError{Msg: "boom", Line: 1, Col: 1}, bg, ErrParse},
		{"unknown", errors.New("mystery"), bg, ErrInternal},
	}
	for _, c := range cases {
		got := classifyError(c.in, c.ctx)
		if c.want == nil {
			if got != nil {
				t.Errorf("%s: got %v, want nil", c.name, got)
			}
			continue
		}
		if !errors.Is(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}
