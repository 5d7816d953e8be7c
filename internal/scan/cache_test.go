package scan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jsrevealer/internal/obs"
)

// TestVerdictCacheLRU unit-tests the bounded LRU: eviction order, recency
// refresh on get, and in-place update on duplicate put.
func TestVerdictCacheLRU(t *testing.T) {
	c := newVerdictCache(2)
	k := func(i int) cacheKey {
		return cacheKey{sum: digest{byte(i), byte(i >> 8)}}
	}
	benign := cacheEntry{verdict: VerdictBenign, tier: TierPipeline}
	malicious := cacheEntry{verdict: VerdictMalicious, malicious: true, tier: TierPipeline}

	c.put(k(1), benign)
	c.put(k(2), malicious)
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing before capacity exceeded")
	}
	// k1 was just refreshed, so inserting k3 must evict k2.
	c.put(k(3), benign)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 survived eviction despite being least recently used")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted despite being recently used")
	}
	if ent, ok := c.get(k(3)); !ok || ent.verdict != VerdictBenign || ent.malicious {
		t.Fatalf("k3 = (%v, %v, %v), want (benign, false, true)", ent.verdict, ent.malicious, ok)
	}
	// Duplicate put updates in place without growing.
	c.put(k(3), malicious)
	if ent, ok := c.get(k(3)); !ok || ent.verdict != VerdictMalicious || !ent.malicious {
		t.Fatalf("k3 after update = (%v, %v, %v), want (malicious, true, true)",
			ent.verdict, ent.malicious, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// The deob mode and the rule generation are part of the key: the same
	// bytes under either other setting miss.
	for _, other := range []cacheKey{
		{sum: k(3).sum, deob: true},
		{sum: k(3).sum, rulesGen: 1},
	} {
		if _, ok := c.get(other); ok {
			t.Errorf("get(%+v) hit the entry stored under %+v", other, k(3))
		}
	}
}

// TestScanSourceCacheHit: rescanning identical content must be answered from
// the cache with an identical verdict, and the hit/miss counters must land
// in the scan context's registry.
func TestScanSourceCacheHit(t *testing.T) {
	det, samples := trainedDetector(t)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(det, Config{})

	first := eng.ScanSource(ctx, "a.js", samples[0].Source)
	if first.Err != nil {
		t.Fatalf("first scan: %v", first.Err)
	}
	second := eng.ScanSource(ctx, "b.js", samples[0].Source)
	if second.Verdict != first.Verdict || second.Malicious != first.Malicious {
		t.Fatalf("cached verdict (%v, %v) != cold verdict (%v, %v)",
			second.Verdict, second.Malicious, first.Verdict, first.Malicious)
	}
	if hits := reg.Counter(CacheHitsMetric, "", nil).Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := reg.Counter(CacheMissesMetric, "", nil).Value(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
	// Different content must miss.
	if res := eng.ScanSource(ctx, "c.js", samples[1].Source); res.Err != nil {
		t.Fatalf("third scan: %v", res.Err)
	}
	if misses := reg.Counter(CacheMissesMetric, "", nil).Value(); misses != 2 {
		t.Errorf("cache misses after distinct content = %d, want 2", misses)
	}
}

// TestScanSourceCacheDisabled: CacheSize < 0 must bypass the cache entirely —
// no cached answers, no hit/miss accounting.
func TestScanSourceCacheDisabled(t *testing.T) {
	det, samples := trainedDetector(t)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(det, Config{CacheSize: -1})
	if eng.cache != nil {
		t.Fatal("cache allocated despite CacheSize < 0")
	}
	for i := 0; i < 2; i++ {
		if res := eng.ScanSource(ctx, "a.js", samples[0].Source); res.Err != nil {
			t.Fatalf("scan %d: %v", i, res.Err)
		}
	}
	if hits := reg.Counter(CacheHitsMetric, "", nil).Value(); hits != 0 {
		t.Errorf("cache hits = %d with cache disabled, want 0", hits)
	}
	if misses := reg.Counter(CacheMissesMetric, "", nil).Value(); misses != 0 {
		t.Errorf("cache misses = %d with cache disabled, want 0", misses)
	}
}

// TestDegradedResultsNotCached: a degraded verdict depends on transient
// conditions (here a deadline), so it must be recomputed every time — the
// cache stores only clean verdicts.
func TestDegradedResultsNotCached(t *testing.T) {
	det, _ := trainedDetector(t)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(&markedSlow{det: det}, Config{Timeout: 50 * time.Millisecond})

	src := slowMarker + "\nvar a = 1;"
	for i := 0; i < 2; i++ {
		res := eng.ScanSource(ctx, "slow.js", src)
		if res.Verdict != VerdictDegraded {
			t.Fatalf("scan %d: verdict = %v, want degraded", i, res.Verdict)
		}
	}
	if hits := reg.Counter(CacheHitsMetric, "", nil).Value(); hits != 0 {
		t.Errorf("cache hits = %d, want 0 (degraded results must not be cached)", hits)
	}
	if misses := reg.Counter(CacheMissesMetric, "", nil).Value(); misses != 2 {
		t.Errorf("cache misses = %d, want 2", misses)
	}
	if eng.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after degraded-only scans, want 0", eng.cache.Len())
	}
}

// TestScanManyIdenticalFiles is the pathological cache scenario from the
// issue: a directory of byte-identical files scanned through the worker
// pool. Verdicts must all agree, every scan must be either a hit or a miss,
// and after a first pass primed the cache, a second pass must be all hits.
// Run with -race this also exercises the cache under real concurrency.
func TestScanManyIdenticalFiles(t *testing.T) {
	det, samples := trainedDetector(t)
	dir := t.TempDir()
	const n = 64
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("dup-%02d.js", i))
		if err := os.WriteFile(paths[i], []byte(samples[0].Source), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(det, Config{Workers: 8})

	results, stats := eng.ScanFiles(ctx, paths)
	if stats.Failed != 0 || stats.Degraded != 0 {
		t.Fatalf("stats = %+v, want all clean", stats)
	}
	for _, r := range results {
		if r.Verdict != results[0].Verdict || r.Malicious != results[0].Malicious {
			t.Fatalf("%s: verdict (%v, %v) differs from first (%v, %v)",
				r.Path, r.Verdict, r.Malicious, results[0].Verdict, results[0].Malicious)
		}
	}
	hits := reg.Counter(CacheHitsMetric, "", nil).Value()
	misses := reg.Counter(CacheMissesMetric, "", nil).Value()
	// Several workers may race to classify the same content before any of
	// them completes and fills the cache, so misses can exceed 1 — but every
	// file is exactly one of hit or miss.
	if hits+misses != n {
		t.Fatalf("hits (%d) + misses (%d) = %d, want %d", hits, misses, hits+misses, n)
	}
	if misses > 8 {
		t.Errorf("misses = %d, want at most one per worker (8)", misses)
	}

	// Second pass over the primed cache: all hits.
	if _, stats := eng.ScanFiles(ctx, paths); stats.Failed != 0 {
		t.Fatalf("second pass failed: %+v", stats)
	}
	if got := reg.Counter(CacheHitsMetric, "", nil).Value(); got != hits+n {
		t.Errorf("second-pass hits = %d, want %d (all %d files)", got-hits, n, n)
	}
}

// TestFollowerOfDegradedLeader: byte-identical content in one run is
// deduplicated to one leader, but a degraded leader leaves nothing in the
// cache for its followers. Each follower must then take the pipeline
// itself and degrade on its own; none may be dropped or served a verdict.
func TestFollowerOfDegradedLeader(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(batchBroken{}, Config{Workers: 2})

	src := "var a = 1;"
	srcs := []Source{{Name: "a.js", Content: src}, {Name: "b.js", Content: src}, {Name: "c.js", Content: src}}
	var mu sync.Mutex
	got := map[string]Result{}
	stats := eng.ScanSources(ctx, srcs, func(r Result) {
		mu.Lock()
		got[r.Path] = r
		mu.Unlock()
	})
	if stats.Degraded != len(srcs) || len(got) != len(srcs) {
		t.Fatalf("stats = %+v, results = %d, want every source degraded", stats, len(got))
	}
	for _, s := range srcs {
		if r := got[s.Name]; r.Verdict != VerdictDegraded || !errors.Is(r.Err, ErrInternal) {
			t.Errorf("%s: verdict %v err %v, want DEGRADED/ErrInternal", s.Name, r.Verdict, r.Err)
		}
	}
	if hits := reg.Counter(CacheHitsMetric, "", nil).Value(); hits != 0 {
		t.Errorf("cache hits = %d, want 0", hits)
	}
}
