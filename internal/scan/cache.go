// Verdict cache: real corpora are full of byte-identical scripts (bundled
// library copies, CDN mirrors, repeated submissions), and the full pipeline
// is deterministic for a given engine, so a scan of content the engine has
// already classified can skip parse, extraction, and embedding entirely.
// The cache is a serving-layer optimisation — it changes cost, never
// verdicts — and only clean outcomes (benign/malicious) are stored: degraded
// and failed results depend on transient conditions (deadlines, resource
// pressure) and must be recomputed.
package scan

import (
	"container/list"
	"sync"

	"jsrevealer/internal/rules"
)

// DefaultCacheSize bounds the verdict cache when Config.CacheSize is 0.
// An entry is a ~48-byte key, two words of verdict, and list/map
// bookkeeping (~150 bytes), so the default costs well under a megabyte.
const DefaultCacheSize = 4096

// cacheKey is everything a cached verdict depends on that can vary between
// scans of one engine: the content digest (see hash.go), whether the
// classifier saw deobfuscation-normalized source (a per-request switch, and
// the two pipelines may legitimately disagree about the same bytes), and the
// rule-set generation (a hot reload could flip any verdict). An entry from a
// stale generation simply misses and ages out of the LRU. The model and the
// triage threshold stay out of the key: both are fixed when the Engine that
// owns the cache is built.
type cacheKey struct {
	sum      digest
	deob     bool
	rulesGen uint64
}

// cacheEntry is one cached clean verdict. tier records which tier produced
// it (TierTriage, TierPipeline, or TierRules) for the audit trail's
// cache_tier; ruleHits replays rule provenance on a hit, so a cache-served
// verdict explains itself exactly like the scan that produced it.
type cacheEntry struct {
	verdict   Verdict
	malicious bool
	tier      string
	ruleHits  []rules.Hit
}

// cacheItem is one LRU element: the entry plus its key, for eviction.
type cacheItem struct {
	key cacheKey
	ent cacheEntry
}

// verdictCache is a bounded, concurrency-safe LRU of clean verdicts.
type verdictCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *cacheItem
	m   map[cacheKey]*list.Element
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns the cached entry for key, refreshing its recency.
func (c *verdictCache) get(key cacheKey) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).ent, true
}

// put stores a clean verdict, evicting the least recently used entry when
// full. Concurrent scans of identical content may race to put the same key;
// the second write wins, which is harmless because both computed the same
// deterministic verdict.
func (c *verdictCache) put(key cacheKey, ent cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheItem{key: key, ent: ent})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheItem).key)
	}
}

// Len reports the current entry count (tests and diagnostics).
func (c *verdictCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
