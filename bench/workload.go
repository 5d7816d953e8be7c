package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/obfuscate"
)

// item is one generated script before its per-request trailer.
type item struct {
	src        string
	name       string // fixed request name of a hot-set script; "" otherwise
	malicious  bool   // ground truth for the accuracy metrics
	obfuscated bool   // passed through an obfuscator, for the input report
}

// part is one script of one request: an item plus the number of its unique
// trailer, or the item verbatim when trailer < 0.
type part struct {
	it      *item
	trailer int
}

// trailerText is the source-map comment that makes a script's bytes unique,
// so it can never be answered from the verdict cache.
func trailerText(n int) string {
	return "\n//# sourceMappingURL=app." + strconv.Itoa(n) + ".js.map\n"
}

func (p part) content() string {
	if p.trailer < 0 {
		return p.it.src
	}
	return p.it.src + trailerText(p.trailer)
}

func (p part) name() string {
	if p.trailer < 0 {
		return p.it.name
	}
	return "app." + strconv.Itoa(p.trailer) + ".js"
}

// op is one request: its scripts and, in the open loop, when it is due
// relative to the start of the phase.
type op struct {
	due   time.Duration
	parts []part
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name     string
	why      string
	endpoint string  // "/detect" or "/scan"
	triage   bool    // the server clears scripts at triage.DefaultThreshold
	deob     bool    // requests carry ?deobfuscate=1
	rules    bool    // the server loads rulesDir
	rate     float64 // open-loop operations per second
	// pass returns one pass over the workload's pools, in an order drawn
	// from the stream's generator.
	pass func(s *stream) []op
}

// rulesDir holds the two worked examples of docs/RULES.md.
const rulesDir = "bench/testdata/rules"

// The rates are about a seventh of each workload's closed-loop capacity at
// the commit that introduced the benchmark, on 2 CPUs (about 200 requests/s
// and 200 pages/s), frozen so that every later commit meets the same
// offered load. At a third of capacity, scan-crawl's p99 spread 29% over
// ten seeds: it measured how often two pages overlapped, not what a page
// costs.
var workloads = []*workload{
	{
		name:     "detect-obfuscated",
		why:      "POST /detect?deobfuscate=1 at 29/s on the paper's four obfuscators, rules on: deob, rules, parser and model do the work and triage clears nothing.",
		endpoint: "/detect",
		triage:   true,
		deob:     true,
		rules:    true,
		rate:     29,
		pass:     passObfuscated,
	},
	{
		name:     "scan-crawl",
		why:      "POST /scan at 28 pages/s, 32 scripts each, 60% from a 256-script hot set: cache hits, triage, the batch driver and NDJSON; deob and rules are off.",
		endpoint: "/scan",
		triage:   true,
		rate:     28,
		pass:     passCrawl,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Pass shapes.
const (
	crawlUnique = 13 // unique scripts per crawled page
	crawlHot    = 19 // hot-set scripts per page (60% of 32)
	hotSetSize  = 256
)

// The script pools are generated from fixed seeds, and every pass sends each
// pool script exactly once, so all passes carry the same work whatever the
// seed: the run seed decides only the order, the grouping into pages, the
// trailers and when each request is due.
var (
	obfPool   = lazyPool(obfuscatedPool)
	hotSet    = lazyPool(hotPool)
	crawlPool = lazyPool(func() []*item { return fromCorpus(corpus.Config{Benign: 2470, Malicious: 130, Seed: 1105}) })
)

func lazyPool(gen func() []*item) func() []*item {
	var once sync.Once
	var items []*item
	return func() []*item {
		once.Do(func() { items = gen() })
		return items
	}
}

// fromCorpus turns corpus samples into items; a sample whose in-the-wild
// transform is an obfuscation (anything but minification) is marked so.
func fromCorpus(cfg corpus.Config) []*item {
	samples := corpus.Generate(cfg)
	out := make([]*item, len(samples))
	for i, s := range samples {
		out[i] = &item{
			src:        s.Source,
			malicious:  s.Malicious,
			obfuscated: s.Transform != "" && s.Transform != "minify",
		}
	}
	return out
}

// obfuscatedPool runs pristine scripts, half malicious, through the paper's
// four obfuscators in turn.
func obfuscatedPool() []*item {
	samples := corpus.Generate(corpus.Config{Benign: 175, Malicious: 175, Seed: 1102, Pristine: true})
	reg := obfuscate.Registry(1103)
	order := obfuscate.PaperOrder()
	out := make([]*item, 0, len(samples))
	for i, s := range samples {
		src, err := reg[order[i%len(order)]].Obfuscate(s.Source)
		if err != nil {
			continue
		}
		out = append(out, &item{src: src, malicious: s.Malicious, obfuscated: true})
	}
	return out
}

// hotPool is the library set that repeats across crawled pages: 95% benign,
// like the rest of the crawl.
func hotPool() []*item {
	items := fromCorpus(corpus.Config{Benign: 243, Malicious: hotSetSize - 243, Seed: 1104})
	for i, it := range items {
		it.name = "lib." + strconv.Itoa(i) + ".js"
	}
	return items
}

// Phases of one workload run; each draws its own input stream.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
)

var phaseNames = [...]string{"warmup", "open", "closed"}

// stream draws one phase's passes deterministically from the run seed.
// Trailer numbers are unique across the phases of a run.
type stream struct {
	w       *workload
	rng     *rand.Rand
	trailer int
}

func newStream(w *workload, seed int64, phase int) *stream {
	return &stream{
		w:       w,
		rng:     rand.New(rand.NewSource(mix(seed, w.name, "inputs", phase))),
		trailer: phase * 10_000_000,
	}
}

// mix derives an independent RNG seed per run seed, workload, purpose and
// phase.
func mix(seed int64, name, purpose string, phase int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d", seed, name, purpose, phase)
	return int64(h.Sum64() >> 1)
}

// next returns the stream's next pass.
func (s *stream) next() []op { return s.w.pass(s) }

func (s *stream) unique(it *item) part {
	p := part{it: it, trailer: s.trailer}
	s.trailer++
	return p
}

// passObfuscated sends every obfuscated-pool script once, with a unique
// trailer, in shuffled order.
func passObfuscated(s *stream) []op {
	pool := obfPool()
	ops := make([]op, len(pool))
	for i, it := range pool {
		ops[i] = op{parts: []part{s.unique(it)}}
	}
	s.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// passCrawl sends every crawl-pool script once, 13 to a page with a unique
// trailer, beside 19 distinct hot-set scripts sent verbatim, shuffled.
func passCrawl(s *stream) []op {
	pool, hot := crawlPool(), hotSet()
	perm := s.rng.Perm(len(pool))
	ops := make([]op, 0, len(pool)/crawlUnique)
	for ; len(perm) >= crawlUnique; perm = perm[crawlUnique:] {
		parts := make([]part, 0, crawlUnique+crawlHot)
		for _, j := range perm[:crawlUnique] {
			parts = append(parts, s.unique(pool[j]))
		}
		for _, j := range s.rng.Perm(len(hot))[:crawlHot] {
			parts = append(parts, part{it: hot[j], trailer: -1})
		}
		s.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		ops = append(ops, op{parts: parts})
	}
	return ops
}

// minOpenOps is the fewest open-loop operations a run sends, so that at
// least minTail of them lie beyond p99.
const minOpenOps = 100 * minTail

// schedule returns the open-loop operations of a run: the whole passes that
// come closest to filling d at w's rate, and at least minOpenOps operations.
// The number of passes depends only on d, so every seed sends the same work.
// Arrivals are Poisson, drawn from their own RNG so that arrival times and
// request contents vary independently with the seed. schedule also returns
// the number of operations in one pass.
func schedule(w *workload, seed int64, d time.Duration) (ops []op, passLen int) {
	arrivals := rand.New(rand.NewSource(mix(seed, w.name, "arrivals", phaseOpen)))
	s := newStream(w, seed, phaseOpen)
	first := s.next()
	passLen = len(first)
	passes := int(math.Round(d.Seconds() * w.rate / float64(passLen)))
	passes = max(passes, (minOpenOps+passLen-1)/passLen)
	t := 0.0
	for pass := first; ; pass = s.next() {
		for _, o := range pass {
			t += arrivals.ExpFloat64() / w.rate
			o.due = time.Duration(t * float64(time.Second))
			ops = append(ops, o)
		}
		if len(ops) == passes*passLen {
			return ops, passLen
		}
	}
}
