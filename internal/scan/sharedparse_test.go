// One parse per escalated script: when the rule set inspects path
// contexts, the engine parses the classifier's view once and hands the
// program to both the rules layer and the model. These tests pin that the
// sharing changes no result, and that it really parses (and, for a model on
// the default path options, extracts) once.
package scan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jsrevealer/internal/core"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
	"jsrevealer/internal/pathctx"
	"jsrevealer/internal/rules"
)

// benchRuleFiles mirror the load benchmark's rule directory: a deny-listed
// C2 domain, and the Jfogs signatures, one of them over path contexts.
var benchRuleFiles = []string{
	`{"version": 1, "deny": [{"id": "exfil-c2-2026-08", "severity": "critical", "domains": ["evil-exfil.example"]}]}`,
	`{"version": 1, "signatures": [
	  {"id": "jfogs-fog-pool", "severity": "high",
	   "match": {"any": [{"regex": "\\$fog\\$[0-9a-f]+\\s*\\["}, {"regex": "\\$fogcall\\$[0-9]+\\s*\\("}]}},
	  {"id": "jfogs-dispatch-shape", "severity": "medium",
	   "match": {"all": [
	     {"path": {"node": "MemberExpression", "min_count": 12}},
	     {"any": [{"path": {"source": "eval", "node": "CallExpression"}}, {"substring": "new Function("}]}
	   ]}}
	]}`,
}

// extraPathRules add a forcing and an annotating path predicate to the
// benchmark's set, so results land in both the rules and the pipeline tier.
const extraPathRules = `{"version": 1, "signatures": [
  {"id": "member-heavy", "severity": "high", "match": {"path": {"node": "MemberExpression", "min_count": 600}}},
  {"id": "call-site", "severity": "low", "match": {"path": {"node": "CallExpression", "min_count": 4}}}
]}`

// withPathOptions returns det's learned model read through each of the
// given path-extraction options. A detector file carries its options, so a
// JSON round trip swaps them without retraining. The round trip takes
// seconds under the race detector, so each result is kept for the process.
func withPathOptions(t testing.TB, det *core.Detector, popts ...pathctx.Options) []*core.Detector {
	t.Helper()
	pathDets.Lock()
	defer pathDets.Unlock()
	var raw map[string]json.RawMessage
	var out []*core.Detector
	for _, po := range popts {
		key := pathDetKey{det, po}
		if d, ok := pathDets.m[key]; ok {
			out = append(out, d)
			continue
		}
		if raw == nil {
			data, err := json.Marshal(det)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
		}
		opts := det.Options()
		opts.Path = po
		var err error
		if raw["options"], err = json.Marshal(opts); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		d := new(core.Detector)
		if err := json.Unmarshal(data, d); err != nil {
			t.Fatal(err)
		}
		pathDets.m[key] = d
		out = append(out, d)
	}
	return out
}

type pathDetKey struct {
	det  *core.Detector
	opts pathctx.Options
}

var pathDets = struct {
	sync.Mutex
	m map[pathDetKey]*core.Detector
}{m: map[pathDetKey]*core.Detector{}}

// countingDetector counts the engine's calls into the shared-parse steps.
type countingDetector struct {
	*core.Detector
	parses, extracts atomic.Int64
}

func (c *countingDetector) ParseProgram(ctx context.Context, src string, lim parser.Limits) (*ast.Program, error) {
	c.parses.Add(1)
	return c.Detector.ParseProgram(ctx, src, lim)
}

func (c *countingDetector) ExtractPaths(ctx context.Context, prog *ast.Program) []pathctx.Path {
	c.extracts.Add(1)
	return c.Detector.ExtractPaths(ctx, prog)
}

// scanOutcome is the part of a Result the sharing must not move.
type scanOutcome struct {
	Verdict    Verdict
	Tier       string
	RuleHits   []rules.Hit
	DeobPasses []string
}

// referenceRules computes a script's rules stages the way the engine did
// before the parse was shared: the pre-triage deny pass, deobfuscation,
// and the full pass over a parse of its own. done reports a rules-tier
// verdict; otherwise csrc goes on to the model.
func referenceRules(set *rules.Set, deob bool, src string) (out scanOutcome, csrc string, done bool) {
	ctx := context.Background()
	lim := parser.Limits{MaxDepth: parser.DefaultMaxDepth, MaxTokens: DefaultMaxTokens}
	if tv := set.EvalText(ctx, src); tv.Action == rules.ActionMalicious {
		return scanOutcome{VerdictMalicious, TierRules, tv.Hits, nil}, src, true
	}
	csrc = src
	if deob {
		if norm, rep, err := deobfuscate.NewPipeline(deobOnCfg()).Normalize(ctx, src, lim); err == nil && rep != nil {
			csrc, out.DeobPasses = norm, rep.Fired()
		}
	}
	in := rules.Input{Name: "ref.js", Raw: src, Normalized: csrc}
	if prog, err := parser.ParseWithLimits(csrc, lim); err == nil {
		in.Prog = prog
	}
	rv := set.Eval(ctx, in)
	out.RuleHits = rv.Hits
	switch rv.Action {
	case rules.ActionMalicious:
		out.Verdict, out.Tier = VerdictMalicious, TierRules
		return out, csrc, true
	case rules.ActionBenign:
		out.Verdict, out.Tier = VerdictBenign, TierRules
		return out, csrc, true
	}
	return out, csrc, false
}

// referenceModel finishes a reference scan with the model's own parse.
func referenceModel(t *testing.T, det *core.Detector, out scanOutcome, csrc string) scanOutcome {
	t.Helper()
	ctx := context.Background()
	lim := parser.Limits{MaxDepth: parser.DefaultMaxDepth, MaxTokens: DefaultMaxTokens}
	p, err := det.PrepareBatch(ctx, csrc, lim)
	if err != nil {
		out.Verdict, out.Tier = VerdictDegraded, TierFallback
		return out
	}
	v, err := det.ClassifyBatch(ctx, []any{p})
	if err != nil {
		t.Fatalf("ClassifyBatch: %v", err)
	}
	out.Verdict, out.Tier = VerdictBenign, TierPipeline
	if v[0] {
		out.Verdict = VerdictMalicious
	}
	return out
}

// TestSharedParseMatchesSeparateParses: with the benchmark's rule set plus
// extraPathRules, ScanSource's verdict, tier, rule hits, and deob passes
// equal a reference that parses once for the rules and again in
// PrepareBatch — for a model on the default path options (paths shared
// too) and for the fixture on its own options, which cap paths per script
// below the default (paths extracted twice, parse still shared; handing
// its paths to the rules would change their hits). Every script is parsed
// by the engine at most once, and its model paths extracted at most once.
func TestSharedParseMatchesSeparateParses(t *testing.T) {
	det, samples := trainedDetector(t)
	models := []struct {
		name string
		det  *core.Detector
	}{
		{"default-paths", withPathOptions(t, det, rules.PathOptions())[0]},
		{"fixture-paths", det},
	}
	prov := testRules(t, append(benchRuleFiles, extraPathRules)...)
	set := prov.Current()
	if !set.NeedsAST() {
		t.Fatal("rule set has no path predicate")
	}

	var srcs []string
	for _, want := range []bool{false, true} {
		n := 0
		for _, s := range samples {
			if s.Malicious == want && n < 1 {
				srcs = append(srcs, s.Source)
				n++
			}
		}
	}
	reg := obfuscate.Registry(7)
	type input struct {
		name, src string
		deob      bool
	}
	var inputs []input
	// Each tool gets one of the two sources, alternating, so both classes
	// and all four tools are covered.
	for i, tool := range obfuscate.PaperOrder() {
		src, err := reg[tool].Obfuscate(srcs[i%len(srcs)])
		if err != nil {
			t.Fatal(err)
		}
		for _, deob := range []bool{false, true} {
			inputs = append(inputs, input{fmt.Sprintf("%s/%d/deob=%v", tool, i%len(srcs), deob), src, deob})
		}
	}

	tiers := map[string]int{}
	for _, in := range inputs {
		ref, csrc, done := referenceRules(set, in.deob, in.src)
		for _, m := range models {
			want := ref
			if !done {
				want = referenceModel(t, m.det, ref, csrc)
			}
			cd := &countingDetector{Detector: m.det}
			cfg := Config{Workers: 1, CacheSize: -1, Rules: prov}
			if in.deob {
				cfg.Deobfuscate = deobOnCfg()
			}
			res := New(cd, cfg).ScanSource(context.Background(), in.name, in.src)
			got := scanOutcome{res.Verdict, res.Tier, res.RuleHits, res.DeobPasses}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s:\n engine    %+v\n reference %+v", in.name, m.name, got, want)
			}
			if p, x := cd.parses.Load(), cd.extracts.Load(); p > 1 || x > 1 {
				t.Fatalf("%s on %s: %d parses, %d model extractions; want at most one each", in.name, m.name, p, x)
			}
			tiers[res.Tier]++
		}
	}
	if tiers[TierRules] == 0 || tiers[TierPipeline] == 0 {
		t.Fatalf("tiers %v: want both rules and pipeline verdicts", tiers)
	}
	t.Logf("%d inputs x %d models: tiers %v", len(inputs), len(models), tiers)
}

// stallingDetector's path extraction does not return before its
// context's deadline; it counts the prepares it is asked for.
type stallingDetector struct {
	*core.Detector
	prepares atomic.Int64
}

func (s *stallingDetector) ExtractPaths(ctx context.Context, prog *ast.Program) []pathctx.Path {
	<-ctx.Done()
	return s.Detector.ExtractPaths(ctx, prog)
}

func (s *stallingDetector) PreparePaths(paths []pathctx.Path) any {
	s.prepares.Add(1)
	return s.Detector.PreparePaths(paths)
}

// TestRulesPastDeadlineDegrade: a path predicate whose extraction outlasts
// the per-file deadline leaves the script to the model after its time ran
// out. It must degrade with ErrTimeout, as when the model parsed on its own,
// and the model's prepare must not start: started, it would race the
// deadline for the verdict.
func TestRulesPastDeadlineDegrade(t *testing.T) {
	det, samples := trainedDetector(t)
	prov := testRules(t, `{"version": 1, "signatures": [
	  {"id": "call-site", "severity": "low", "match": {"path": {"node": "CallExpression", "min_count": 1}}}]}`)
	stall := &stallingDetector{Detector: withPathOptions(t, det, rules.PathOptions())[0]}
	eng := New(stall, Config{Workers: 1, CacheSize: -1, Timeout: 20 * time.Millisecond, Rules: prov})
	for i := 0; i < 4; i++ {
		res := eng.ScanSource(context.Background(), fmt.Sprintf("stall%d.js", i), samples[0].Source)
		if !errors.Is(res.Err, ErrTimeout) || res.Tier == TierPipeline {
			t.Fatalf("run %d: tier %q, err %v; want a degraded result with ErrTimeout", i, res.Tier, res.Err)
		}
	}
	if n := stall.prepares.Load(); n != 0 {
		t.Fatalf("%d prepares started after the deadline", n)
	}
}

// TestPaddedDenyHostSurvivesTriage: a script that pads ahead of its
// deny-listed host with more unlisted hosts than the per-script token cap
// used to pass the pre-triage deny stage, and triage then cleared it. Only
// tokens that match a list entry count toward the cap now.
func TestPaddedDenyHostSurvivesTriage(t *testing.T) {
	var b strings.Builder
	b.WriteString("var mirrors = [")
	for i := 0; i < 520; i++ {
		fmt.Fprintf(&b, "'h%d.io', ", i)
	}
	b.WriteString("];\nvar img = new Image();\nimg.src = 'https://evil-exfil.example/pixel.gif';\n")
	src := b.String()

	var runs int64
	plain := New(benignClassifier(&runs), Config{Workers: 1, CacheSize: -1, Triage: triageOn()})
	if res := plain.ScanSource(context.Background(), "pad.js", src); res.Tier != TierTriage {
		t.Fatalf("without rules tier = %q, want %q (the padding must look clearable)", res.Tier, TierTriage)
	}
	eng := New(benignClassifier(&runs), Config{Workers: 1, CacheSize: -1, Triage: triageOn(), Rules: testRules(t, denyRuleFile)})
	res := eng.ScanSource(context.Background(), "pad.js", src)
	want := []rules.Hit{{Rule: "exfil-c2", Kind: rules.HitDeny, Severity: rules.SeverityCritical, Evidence: "evil-exfil.example"}}
	if res.Verdict != VerdictMalicious || res.Tier != TierRules || !reflect.DeepEqual(res.RuleHits, want) {
		t.Fatalf("result = %+v, want a rules-tier deny with %+v", res, want)
	}
}
