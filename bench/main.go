// Command bench is the end-to-end load benchmark for `jsrevealer serve`.
//
// Run it from the repository root through bench/run.sh, which builds the
// server and this program first:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]
//
// Each workload starts its own server as a child process (12 times in all,
// to time start-up), warms it up, drives it from this process over loopback
// HTTP with at most two connections — open-loop segments at a fixed Poisson
// rate, each followed by one closed-loop pass for throughput — and checks
// every answer. All traffic comes in passes that send every script of the
// workload's pools once, so every run carries the same work. With -trace 1
// it also replays the workload's first pass in-process through each layer's
// public function and reports per-layer numbers instead of the end-to-end
// ones. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// metricDef describes a metric the benchmark reports; moves names what a
// per-layer metric should move, on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the server sees, reported for every
// workload without tracing. Their regression bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", ""},
	{"latency_p99_ms", "ms", ""},
	{"throughput_sps", "scripts/s", ""},
	{"setup_s", "s", ""},
	{"rss_mb", "MB", ""},
	{"detection_rate", "ratio", ""},
	{"false_positive_rate", "ratio", ""},
	{"clean_ratio", "ratio", ""},
}

// perLayer are reported by -trace 1, for every workload. Times are the
// median per call.
var perLayer = []metricDef{
	{"serve.overhead_us", "us", "throughput_sps on scan-crawl"},
	{"serve.admission_wait_ms", "ms", "latency_p99_ms on detect-obfuscated"},
	{"serve.rejects", "count", "latency_p99_ms on detect-obfuscated"},
	{"scan.tier_share.triage", "ratio", "which layer a gain can reach"},
	{"scan.tier_share.cache", "ratio", "which layer a gain can reach"},
	{"scan.tier_share.pipeline", "ratio", "which layer a gain can reach"},
	{"scan.tier_share.rules", "ratio", "which layer a gain can reach"},
	{"scan.tier_share.fallback", "ratio", "which layer a gain can reach"},
	{"scan.cache_hit_us", "us", "throughput_sps on scan-crawl"},
	{"scan.engine_us", "us", "latency_p50_ms on detect-obfuscated"},
	{"scan.unattributed_share", "ratio", "latency_p50_ms on detect-obfuscated"},
	{"triage.score_us", "us", "throughput_sps on scan-crawl; none on detect-obfuscated"},
	{"triage.clear_ratio", "ratio", "throughput_sps on scan-crawl; none on detect-obfuscated"},
	{"rules.eval_text_us", "us", "latency_p50_ms on detect-obfuscated; none on scan-crawl"},
	{"rules.eval_us", "us", "latency_p50_ms on detect-obfuscated; none on scan-crawl"},
	{"rules.hit_ratio", "ratio", "latency_p50_ms on detect-obfuscated; none on scan-crawl"},
	{"deob.normalize_us", "us", "latency_p50_ms on detect-obfuscated; none on scan-crawl"},
	{"deob.normalize_p99_us", "us", "latency_p99_ms on detect-obfuscated; none on scan-crawl"},
	{"deob.fired_ratio", "ratio", "latency_p50_ms on detect-obfuscated; none on scan-crawl"},
	{"lexer.lex_us", "us", "latency_p50_ms and throughput_sps on detect-obfuscated"},
	{"parser.parse_us", "us", "latency_p50_ms and throughput_sps on detect-obfuscated"},
	{"dataflow.analyze_us", "us", "latency_p50_ms and throughput_sps on detect-obfuscated"},
	{"pathctx.traverse_us", "us", "latency_p50_ms and throughput_sps on detect-obfuscated"},
	{"core.prepare_us", "us", "throughput_sps on detect-obfuscated, less on scan-crawl"},
	{"core.classify_us", "us", "throughput_sps on detect-obfuscated, less on scan-crawl"},
	{"core.load_ms", "ms", "setup_s"},
	{"trace.span_ns", "ns", "the cost of recording one span in the traced run"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// config holds the command-line settings of one invocation.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	repeat  int
}

// open is how long the open loop should run: two thirds of -seconds,
// rounded to whole passes. The closed-loop passes and the timed start-ups
// take most of the rest.
func (c config) open() time.Duration {
	return time.Duration(c.seconds * 2 / 3 * float64(time.Second))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: both in turn)")
	seed := fs.Int64("seed", 1, "seed for request contents and arrival times")
	seconds := fs.Float64("seconds", 54, "measured seconds per run: about 2/3 open loop, in whole passes, in ten segments with a closed-loop pass after each")
	trace := fs.Int("trace", 0, "1: replay inputs in-process through each layer and report per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload on seeds seed..seed+N-1; prints median and IQR of each metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, repeat: *repeat}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.scratch)
	if cfg.repeat > 1 {
		return repeatRuns(e, cfg, selected)
	}
	var reps []*report
	for _, w := range selected {
		r, err := runWorkload(e, w, cfg, cfg.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(os.Stdout)
		if err := r.save(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		reps = append(reps, r)
	}
	return summary(reps, len(selected) > 1)
}

// env is what every workload run shares.
type env struct {
	model, modelSHA string
	scratch         string
	meta            map[string]any
}

func newEnv() (*env, error) {
	for _, p := range []string{"go.mod", "cmd/jsrevealer", "bench/go.mod", serverBin} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("run from the repository root through bench/run.sh: %w", err)
		}
	}
	model, sum, err := fixtureModel()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{model: model, modelSHA: sum, scratch: scratch, meta: map[string]any{
		"git_sha":      gitSHA(),
		"go_version":   runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"model_sha256": sum,
		"model_train":  strings.Join(fixtureArgs, " "),
	}}, nil
}

// gitSHA reads the checked-out commit from .git without leaving the
// checkout; a checkout without .git reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// summary prints the closing JSON line. A single-workload run reports that
// workload's metrics under their own names; a multi-workload run prefixes
// each with its workload.
func summary(reps []*report, prefixed bool) int {
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, r := range reps {
		line.Correct = line.Correct && len(r.Problems) == 0
		for _, p := range r.Phases {
			line.Attempted += p.Sent
			line.Failed += p.Failed
		}
		for _, m := range r.reported() {
			key := m.Name
			if prefixed {
				key = r.Workload + "/" + m.Name
			}
			line.Metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// repeatRuns runs each workload cfg.repeat times on consecutive seeds and
// prints the median and interquartile range of every metric, flagging the
// ones whose spread exceeds their BENCHMARK.json bound.
func repeatRuns(e *env, cfg config, selected []*workload) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var medians []*report
	for _, w := range selected {
		values := map[string][]float64{}
		med := &report{Workload: w.name, Seed: cfg.seed}
		var last *report
		for i := 0; i < cfg.repeat; i++ {
			r, err := runWorkload(e, w, cfg, cfg.seed+int64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if err := r.save(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if len(r.Problems) > 0 {
				r.print(os.Stdout)
				return 1
			}
			fmt.Printf("%s seed %d done\n", w.name, r.Seed)
			med.Phases = append(med.Phases, r.Phases...)
			for _, m := range r.reported() {
				values[m.Name] = append(values[m.Name], m.Value)
			}
			last = r
		}
		fmt.Printf("\n== %s: %d runs, seeds %d..%d ==\n", w.name, cfg.repeat, cfg.seed, cfg.seed+int64(cfg.repeat)-1)
		fmt.Printf("  %-26s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range last.reported() {
			q1, md, q3 := quartiles(values[m.Name])
			spread := math.Abs(q3-q1) / math.Abs(md)
			flagText, boundText := "", ""
			if b, ok := bounds[m.Name]; ok {
				boundText = fmt.Sprintf("%.3f", b)
				switch {
				case spread > b:
					flagText = "  SPREAD > BOUND"
				case spread > b/3:
					flagText = "  spread > bound/3"
				}
			}
			fmt.Printf("  %-26s %14.6g %14.6g %14.6g %8.4f %6s%s\n", m.Name, md, q1, q3, spread, boundText, flagText)
			med.Metrics = append(med.Metrics, metric{Name: m.Name, Unit: m.Unit, Value: md})
		}
		medians = append(medians, med)
	}
	return summary(medians, len(selected) > 1)
}

// readBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func readBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
