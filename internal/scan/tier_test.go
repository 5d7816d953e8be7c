package scan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/triage"
)

// triageOn is the engine config knob for the default triage tier.
func triageOn() triage.Config {
	return triage.Config{Threshold: triage.DefaultThreshold}
}

// clearableBenign returns pristine benign corpus sources that the default
// triage scorer clears — deterministic inputs for the short-circuit path.
func clearableBenign(t testing.TB, n int) []string {
	t.Helper()
	sc := triage.New(triageOn())
	var out []string
	for seed := int64(1); len(out) < n && seed < 50; seed++ {
		for _, s := range corpus.Generate(corpus.Config{Benign: 20, Seed: seed, Pristine: true}) {
			if sc.Clear(s.Source) {
				out = append(out, s.Source)
				if len(out) == n {
					break
				}
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d pristine benign samples clear triage", len(out), n)
	}
	return out
}

// TestTriageClearsBenign: with the triage tier enabled, a plainly benign
// script short-circuits to a benign verdict tagged TierTriage — the full
// pipeline must never run. Counters, stats, and the tier metric all have to
// agree.
func TestTriageClearsBenign(t *testing.T) {
	var pipelineRuns int64
	counting := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		atomic.AddInt64(&pipelineRuns, 1)
		return false, nil
	})
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(counting, Config{Workers: 2, Triage: triageOn()})

	srcs := clearableBenign(t, 4)
	var sources []Source
	for i, s := range srcs {
		sources = append(sources, Source{Name: fmt.Sprintf("benign-%d.js", i), Content: s})
	}
	var mu sync.Mutex
	var results []Result
	stats := eng.ScanSources(ctx, sources, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	if got := atomic.LoadInt64(&pipelineRuns); got != 0 {
		t.Fatalf("pipeline ran %d times, want 0 (triage should clear everything)", got)
	}
	if stats.Triaged != len(srcs) {
		t.Errorf("Stats.Triaged = %d, want %d", stats.Triaged, len(srcs))
	}
	for _, r := range results {
		if r.Verdict != VerdictBenign || r.Malicious || r.Err != nil {
			t.Errorf("%s: result = %+v, want clean benign", r.Path, r)
		}
		if r.Tier != TierTriage {
			t.Errorf("%s: tier = %q, want %q", r.Path, r.Tier, TierTriage)
		}
	}
	if got := reg.Counter(TierMetric, "", obs.Labels{"tier": TierTriage}).Value(); got != int64(len(srcs)) {
		t.Errorf("tier counter{triage} = %d, want %d", got, len(srcs))
	}
	if got := reg.Counter(TierMetric, "", obs.Labels{"tier": TierPipeline}).Value(); got != 0 {
		t.Errorf("tier counter{pipeline} = %d, want 0", got)
	}
	if n := reg.Histogram(TierDurationMetric, "", nil, obs.Labels{"tier": TierTriage}).Count(); n != uint64(len(srcs)) {
		t.Errorf("tier duration{triage} observations = %d, want %d", n, len(srcs))
	}
}

// TestTriageNeverClearsMalicious: on a full mixed corpus, triage-enabled and
// triage-disabled engines must agree on every verdict, and no malicious
// script may carry the triage tier — triage only ever short-circuits to
// benign, so a wrong clear would surface here as a verdict flip.
func TestTriageNeverClearsMalicious(t *testing.T) {
	det, _ := trainedDetector(t)
	samples := corpus.Generate(corpus.Config{Benign: 20, Malicious: 20, Seed: 29})
	plain := New(det, Config{Workers: 4, CacheSize: -1})
	tiered := New(det, Config{Workers: 4, CacheSize: -1, Triage: triageOn()})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	for i, s := range samples {
		want := plain.ScanSource(ctx, fmt.Sprintf("s%d.js", i), s.Source)
		got := tiered.ScanSource(ctx, fmt.Sprintf("s%d.js", i), s.Source)
		if got.Verdict != want.Verdict || got.Malicious != want.Malicious {
			t.Errorf("sample %d (malicious=%v): tiered=(%v,%v) plain=(%v,%v) tier=%s",
				i, s.Malicious, got.Verdict, got.Malicious, want.Verdict, want.Malicious, got.Tier)
		}
		if s.Malicious && got.Tier == TierTriage {
			t.Errorf("sample %d: malicious script cleared by triage", i)
		}
	}
}

// TestTriageDisabledByDefault: the zero config keeps today's behavior —
// no triage scorer, every verdict comes from the pipeline.
func TestTriageDisabledByDefault(t *testing.T) {
	eng := New(ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return false, nil
	}), Config{})
	if eng.triage != nil {
		t.Fatal("triage scorer allocated with zero config")
	}
	src := clearableBenign(t, 1)[0]
	res := eng.ScanSource(obs.WithRegistry(context.Background(), obs.NewRegistry()), "a.js", src)
	if res.Tier != TierPipeline {
		t.Errorf("tier = %q, want %q with triage disabled", res.Tier, TierPipeline)
	}
	if res.Verdict != VerdictBenign {
		t.Errorf("verdict = %v", res.Verdict)
	}
}

// TestCachedTriageVerdictNotAliased: a triage-enabled engine serves its own
// cached triage clear without running the pipeline. A triage entry can
// only come from an engine with triage on, since the cache belongs to one
// engine and the triage threshold is fixed when it is built; so no triage-off
// engine ever reads one, and no triage re-put can overwrite a pipeline
// entry (identical content under the same key hits the cache first).
func TestCachedTriageVerdictNotAliased(t *testing.T) {
	var pipelineRuns int64
	counting := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		atomic.AddInt64(&pipelineRuns, 1)
		return false, nil
	})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	src := clearableBenign(t, 1)[0]

	tiered := New(counting, Config{Workers: 1, Triage: triageOn()})
	tiered.cache.put(cacheKey{sum: contentKey(src)}, cacheEntry{verdict: VerdictBenign, tier: TierTriage})
	res := tiered.ScanSource(ctx, "b.js", src)
	if res.Tier != TierCache {
		t.Errorf("tier = %q, want %q (triage entry is servable here)", res.Tier, TierCache)
	}
	if got := atomic.LoadInt64(&pipelineRuns); got != 0 {
		t.Errorf("pipeline ran %d times, want 0", got)
	}
}

// TestAuditCarriesTriageTier: audit records name the producing tier for
// triage clears, and cache-hit records carry the cached entry's tier in
// cache_tier so a served triage verdict is distinguishable from a served
// full verdict.
func TestAuditCarriesTriageTier(t *testing.T) {
	log, records := openAudit(t)
	eng := New(ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return false, nil
	}), Config{Workers: 1, Audit: log, Triage: triageOn()})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	src := clearableBenign(t, 1)[0]

	if res := eng.ScanSource(ctx, "clear.js", src); res.Tier != TierTriage {
		t.Fatalf("tier = %q, want triage", res.Tier)
	}
	// Identical content again: a cache hit on the triage-produced entry.
	if res := eng.ScanSource(ctx, "again.js", src); res.Tier != TierCache {
		t.Fatalf("rescan tier = %q, want cache", res.Tier)
	}

	recs := records()
	if len(recs) != 2 {
		t.Fatalf("got %d audit records, want 2", len(recs))
	}
	if recs[0].Tier != TierTriage || recs[0].Cache != "miss" {
		t.Errorf("triage record tier/cache = %s/%s, want triage/miss", recs[0].Tier, recs[0].Cache)
	}
	if recs[1].Tier != TierCache || recs[1].Cache != "hit" || recs[1].CacheTier != TierTriage {
		t.Errorf("hit record tier/cache/cache_tier = %s/%s/%s, want cache/hit/triage",
			recs[1].Tier, recs[1].Cache, recs[1].CacheTier)
	}
	if recs[0].SHA256 == "" || recs[0].SHA256 != recs[1].SHA256 {
		t.Errorf("content digests = %q vs %q", recs[0].SHA256, recs[1].SHA256)
	}
}

// TestBatchedScanMatchesPerSource: every entry point runs core.Detector
// through the batch driver — ScanSources, ScanFiles over the same content
// on disk, and ScanSource — and each verdict must equal core's per-script
// path, DetectCtx (a batch of one).
func TestBatchedScanMatchesPerSource(t *testing.T) {
	det, samples := trainedDetector(t)
	if _, ok := interface{}(det).(BatchClassifier); !ok {
		t.Fatal("core.Detector no longer implements BatchClassifier")
	}
	eng := New(det, Config{Workers: 4, CacheSize: -1})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	dir := t.TempDir()

	var sources []Source
	var paths []string
	for i, s := range samples {
		if i == 12 {
			break
		}
		sources = append(sources, Source{Name: fmt.Sprintf("s%d.js", i), Content: s.Source})
		p := filepath.Join(dir, fmt.Sprintf("s%d.js", i))
		if err := os.WriteFile(p, []byte(s.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var mu sync.Mutex
	got := map[string]Result{}
	stats := eng.ScanSources(ctx, sources, func(r Result) {
		mu.Lock()
		got[r.Path] = r
		mu.Unlock()
	})
	if stats.Scanned != len(sources) || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	files, fstats := eng.ScanFiles(ctx, paths)
	if fstats.Scanned != len(paths) || fstats.Failed != 0 {
		t.Fatalf("ScanFiles stats = %+v", fstats)
	}
	for i, s := range sources {
		want, err := det.DetectCtx(ctx, s.Content)
		if err != nil {
			t.Fatalf("%s: DetectCtx: %v", s.Name, err)
		}
		r, ok := got[s.Name]
		if !ok {
			t.Fatalf("no result for %s", s.Name)
		}
		for _, c := range []struct {
			entry string
			r     Result
		}{
			{"ScanSources", r},
			{"ScanFiles", files[i]},
			{"ScanSource", eng.ScanSource(ctx, s.Name, s.Content)},
		} {
			if c.r.Err != nil || c.r.Malicious != want {
				t.Errorf("%s %s: (%v, %v, err %v), reference malicious=%v",
					c.entry, s.Name, c.r.Verdict, c.r.Malicious, c.r.Err, want)
			}
			if c.r.Tier != TierPipeline {
				t.Errorf("%s %s: tier = %q, want pipeline", c.entry, s.Name, c.r.Tier)
			}
		}
	}
}

// batchBroken implements BatchClassifier with a back half that always
// fails; every pending script must degrade individually to the fallback
// instead of being dropped.
type batchBroken struct{}

func (batchBroken) DetectCtx(ctx context.Context, src string) (bool, error) {
	return false, nil
}

func (batchBroken) PrepareBatch(ctx context.Context, src string, lim parser.Limits) (any, error) {
	return src, nil
}

func (batchBroken) ClassifyBatch(ctx context.Context, prepared []any) ([]bool, error) {
	return nil, errors.New("embedding backend down")
}

func TestBatchFailureDegradesEachScript(t *testing.T) {
	eng := New(batchBroken{}, Config{Workers: 2, CacheSize: -1})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	srcs := []Source{
		{Name: "a.js", Content: "var a = 1;"},
		{Name: "b.js", Content: "var b = 2;"},
		{Name: "c.js", Content: "var c = 3;"},
	}
	var mu sync.Mutex
	var results []Result
	stats := eng.ScanSources(ctx, srcs, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	if len(results) != len(srcs) || stats.Degraded != len(srcs) {
		t.Fatalf("results=%d stats=%+v, want every script degraded", len(results), stats)
	}
	for _, r := range results {
		if r.Verdict != VerdictDegraded || !errors.Is(r.Err, ErrInternal) {
			t.Errorf("%s: verdict %v err %v, want DEGRADED/ErrInternal", r.Path, r.Verdict, r.Err)
		}
		if r.Tier != TierFallback {
			t.Errorf("%s: tier = %q, want fallback", r.Path, r.Tier)
		}
	}
}

// BenchmarkScanFilesTiered measures the batched engine over a benign-heavy
// directory with the triage tier off and on, same corpus, cache disabled.
// The off/on ratio is the headline win of the tiered pipeline: triage
// answers the common benign case without parse or embedding.
func BenchmarkScanFilesTiered(b *testing.B) {
	det, _ := trainedDetector(b)
	samples := corpus.Generate(corpus.Config{Benign: 64, Seed: 5, Pristine: true})
	dir := b.TempDir()
	var paths []string
	for i, s := range samples {
		p := filepath.Join(dir, fmt.Sprintf("f%02d.js", i))
		if err := os.WriteFile(p, []byte(s.Source), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"triage=off", Config{Workers: 4, CacheSize: -1}},
		{"triage=on", Config{Workers: 4, CacheSize: -1, Triage: triageOn()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := New(det, bc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats := eng.ScanFiles(context.Background(), paths)
				if stats.Failed != 0 {
					b.Fatalf("%d files failed", stats.Failed)
				}
			}
		})
	}
}
