package scan

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"jsrevealer/internal/core"
	"jsrevealer/internal/corpus"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
	"jsrevealer/internal/obs"
)

func deobOnCfg() deobfuscate.Config {
	return deobfuscate.Config{Enabled: true}
}

// normalizedDetector trains the deob-matched twin of trainedDetector: the
// same samples, options, and seeds, but every training source normalized by
// the deobfuscation pipeline first. Enabling Config.Deobfuscate moves the
// classifier's input distribution — decode chains fold away, string arrays
// unroll — so the model must be trained where it will be evaluated. (The
// raw-trained detector paired with deob-on scanning demonstrably loses
// signal: the malicious families' fromCharCode/hex-escape decoding IS part
// of what it learned.)
var (
	normDetOnce sync.Once
	normDetVal  *core.Detector
	normDetErr  error
)

func normalizedDetector(t testing.TB) *core.Detector {
	t.Helper()
	trainedDetector(t) // fills detSamples
	normDetOnce.Do(func() {
		p := deobfuscate.NewPipeline(deobfuscate.Config{})
		norm := make([]core.Sample, len(detSamples))
		for i, s := range detSamples {
			out, _, err := p.Normalize(context.Background(), s.Source, parser.Limits{})
			if err != nil {
				out = s.Source
			}
			norm[i] = core.Sample{Source: out, Malicious: s.Malicious}
		}
		opts := core.DefaultOptions()
		opts.Seed = 11
		opts.Embedding.Seed = 11
		opts.Embedding.Dim = 24
		opts.Embedding.Epochs = 5
		opts.Path.MaxPaths = 400
		opts.MaxPoolPerClass = 800
		normDetVal, normDetErr = core.Train(norm, nil, opts)
	})
	if normDetErr != nil {
		t.Fatalf("Train (normalized): %v", normDetErr)
	}
	return normDetVal
}

// TestDeobfuscateOffGoldenPin is the zero-cost opt-out gate (same pattern
// as the triage-off gate in PR 8): with Deobfuscate disabled, every verdict
// is bit-identical to a plain engine's, no result carries DeobPasses, no
// deob metric moves, and the detector's fingerprint is untouched by the
// scans — the stage being merely present must change nothing.
func TestDeobfuscateOffGoldenPin(t *testing.T) {
	det, samples := trainedDetector(t)
	fpBefore, err := det.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	base := New(det, Config{CacheSize: -1})
	zero := New(det, Config{CacheSize: -1, Deobfuscate: deobfuscate.Config{}})
	for i, s := range samples {
		a := base.ScanSource(ctx, fmt.Sprintf("s%d.js", i), s.Source)
		b := zero.ScanSource(ctx, fmt.Sprintf("s%d.js", i), s.Source)
		if a.Verdict != b.Verdict || a.Malicious != b.Malicious {
			t.Fatalf("sample %d: verdict (%v,%v) with zero Deobfuscate config, want (%v,%v)",
				i, b.Verdict, b.Malicious, a.Verdict, a.Malicious)
		}
		if len(b.DeobPasses) != 0 {
			t.Fatalf("sample %d: DeobPasses = %v with deobfuscation disabled", i, b.DeobPasses)
		}
	}
	if got := reg.Counter(deobfuscate.RunsMetric, "", obs.Labels{"result": "changed"}).Value(); got != 0 {
		t.Errorf("deob runs recorded with stage disabled: %d", got)
	}
	fpAfter, err := det.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if fpBefore != fpAfter {
		t.Fatalf("detector fingerprint changed across scans: %s -> %s", fpBefore, fpAfter)
	}
}

// TestDeobfuscateNoNewFalseNegatives is the adversarial safety gate on the
// clean (unobfuscated) malicious corpus: any sample the raw configuration
// (raw-trained detector, deob off) flags must still be flagged by the deob
// configuration (normalized-trained detector, deob on). Normalization is
// allowed to find *more* malware, never to hide any.
func TestDeobfuscateNoNewFalseNegatives(t *testing.T) {
	det, samples := trainedDetector(t)
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	off := New(det, Config{CacheSize: -1})
	on := New(normalizedDetector(t), Config{CacheSize: -1, Deobfuscate: deobOnCfg()})
	flagged, kept := 0, 0
	for i, s := range samples {
		if !s.Malicious {
			continue
		}
		name := fmt.Sprintf("mal%d.js", i)
		a := off.ScanSource(ctx, name, s.Source)
		if a.Err != nil {
			t.Fatalf("%s: %v", name, a.Err)
		}
		if !a.Malicious {
			continue // already missed without deobfuscation; not our regression
		}
		flagged++
		b := on.ScanSource(ctx, name, s.Source)
		if b.Err != nil {
			t.Fatalf("%s (deob on): %v", name, b.Err)
		}
		if b.Malicious {
			kept++
		} else {
			t.Errorf("%s: flipped malicious -> benign with deobfuscation on (passes %v)",
				name, b.DeobPasses)
		}
	}
	if flagged == 0 {
		t.Fatal("no malicious sample flagged even without deobfuscation; corpus or detector broken")
	}
	t.Logf("clean malicious corpus: %d/%d flagged verdicts preserved with deobfuscation on", kept, flagged)
}

// TestDeobfuscationLift measures the point of the whole subsystem: for
// each paper obfuscator, the detection rate on obfuscated malicious
// samples and the false-positive rate on obfuscated benign samples, with
// the raw configuration (raw-trained detector, deob off) vs the deob
// configuration (normalized-trained detector, deob on). The markdown table
// printed under -v is the source of the EXPERIMENTS.md deobfuscation
// table.
//
// The assertions mirror the acceptance criteria, not a fantasy: detection
// must hold or improve on at least two of the four obfuscators, and
// wherever it drops, the benign FPR must drop at least as much — on this
// corpus the raw detector's near-perfect "detection" of heavy obfuscation
// is FP-driven (it flags anything weird; see EXPERIMENTS.md Table IV), so
// a joint fall of hits and false alarms is the inflation deflating, not
// signal being lost.
func TestDeobfuscationLift(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector and scans 4 obfuscated corpora")
	}
	det, _ := trainedDetector(t)
	samples := corpus.Generate(corpus.Config{Benign: 40, Malicious: 40, Seed: 77})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	off := New(det, Config{CacheSize: -1})
	on := New(normalizedDetector(t), Config{CacheSize: -1, Deobfuscate: deobOnCfg()})
	reg := obfuscate.Registry(7)

	var table strings.Builder
	table.WriteString("| Obfuscator | detected off | detected on | lift | FPR off | FPR on |\n")
	table.WriteString("|---|---|---|---|---|---|\n")
	heldOrImproved := 0
	for _, name := range obfuscate.PaperOrder() {
		obf := reg[name]
		var mal, hitOff, hitOn, ben, fpOff, fpOn int
		for i, s := range samples {
			osrc, err := obf.Obfuscate(s.Source)
			if err != nil {
				t.Fatalf("%s: obfuscate sample %d: %v", name, i, err)
			}
			id := fmt.Sprintf("%s-%d.js", name, i)
			roff := off.ScanSource(ctx, id, osrc)
			ron := on.ScanSource(ctx, id, osrc)
			if s.Malicious {
				mal++
				if roff.Malicious {
					hitOff++
				}
				if ron.Malicious {
					hitOn++
				}
			} else {
				ben++
				if roff.Malicious {
					fpOff++
				}
				if ron.Malicious {
					fpOn++
				}
			}
		}
		pct := func(n, total int) string {
			return fmt.Sprintf("%d/%d (%.0f%%)", n, total, 100*float64(n)/float64(total))
		}
		fmt.Fprintf(&table, "| %s | %s | %s | %+d | %s | %s |\n",
			name, pct(hitOff, mal), pct(hitOn, mal), hitOn-hitOff, pct(fpOff, ben), pct(fpOn, ben))
		if hitOn >= hitOff {
			heldOrImproved++
		} else if fpOff-fpOn < hitOff-hitOn {
			t.Errorf("%s: detection dropped %d -> %d without a matching FP drop (%d -> %d): real signal lost",
				name, hitOff, hitOn, fpOff, fpOn)
		}
	}
	t.Logf("obfuscated corpus, raw config vs deob config (seed 77):\n%s", table.String())
	if heldOrImproved < 2 {
		t.Errorf("detection held or improved on %d obfuscators, want >= 2", heldOrImproved)
	}
}

// TestDeobProvenance: a scan that fires passes reports them on the Result,
// in the audit record's deob_passes field, and in Stats.Deobfuscated, and
// the deob metrics land in the scan context's registry.
func TestDeobProvenance(t *testing.T) {
	det, samples := trainedDetector(t)
	log, records := openAudit(t)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(det, Config{CacheSize: -1, Audit: log, Deobfuscate: deobOnCfg()})

	// An obfuscated sample guarantees at least one pass fires.
	obf := obfuscate.Registry(7)["Jfogs"]
	osrc, err := obf.Obfuscate(samples[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.ScanSources(ctx, []Source{{Name: "fog.js", Content: osrc}}, nil)
	if stats.Deobfuscated != 1 {
		t.Errorf("Stats.Deobfuscated = %d, want 1", stats.Deobfuscated)
	}
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	if len(recs[0].DeobPasses) == 0 {
		t.Errorf("audit record carries no deob_passes for a deobfuscated scan")
	}
	if _, ok := recs[0].StagesMS["scan.deob"]; !ok {
		t.Errorf("stages_ms misses scan.deob: %v", recs[0].StagesMS)
	}
	if got := reg.Counter(deobfuscate.RunsMetric, "", obs.Labels{"result": "changed"}).Value(); got != 1 {
		t.Errorf("deob changed-runs metric = %d, want 1", got)
	}
}

// TestDeobCacheNotAliased pins the deob mode as part of the cache key: a
// pipeline verdict computed over normalized source must not answer a scan
// that wants the raw pipeline, and vice versa — the two configurations are
// different pipelines that may legitimately disagree. Both entries coexist.
func TestDeobCacheNotAliased(t *testing.T) {
	det, samples := trainedDetector(t)
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	eng := New(det, Config{Deobfuscate: deobOnCfg()})
	src := samples[0].Source

	first := eng.ScanSource(ctx, "a.js", src)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	// Same engine, per-request deob off: the cached deob-on verdict must
	// not be served; the raw pipeline runs and adds its own entry.
	second := eng.ScanSource(WithDeobfuscate(ctx, false), "b.js", src)
	if second.Tier == TierCache {
		t.Fatal("deob-on cache entry served to a deob-off scan")
	}
	if second.Tier != TierPipeline {
		t.Fatalf("tier = %q, want pipeline", second.Tier)
	}
	// And back: the deob-on entry is still there, so a deob-on scan is
	// answered with the first scan's verdict.
	third := eng.ScanSource(ctx, "c.js", src)
	if third.Tier != TierCache {
		t.Fatalf("tier = %q on deob-on rescan, want cache", third.Tier)
	}
	if third.Verdict != first.Verdict || third.Malicious != first.Malicious {
		t.Fatalf("deob-on rescan = (%v, %v), want the deob-on scan's (%v, %v)",
			third.Verdict, third.Malicious, first.Verdict, first.Malicious)
	}
	// And the deob-off entry answers deob-off scans.
	fourth := eng.ScanSource(WithDeobfuscate(ctx, false), "d.js", src)
	if fourth.Tier != TierCache {
		t.Fatalf("tier = %q on deob-off rescan, want cache", fourth.Tier)
	}
	if fourth.Verdict != second.Verdict || fourth.Malicious != second.Malicious {
		t.Fatalf("deob-off rescan = (%v, %v), want the deob-off scan's (%v, %v)",
			fourth.Verdict, fourth.Malicious, second.Verdict, second.Malicious)
	}
}

// TestWithDeobfuscateOverride: the context override flips the stage on for
// an engine whose default is off, and the result carries the passes.
func TestWithDeobfuscateOverride(t *testing.T) {
	det, samples := trainedDetector(t)
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	eng := New(det, Config{CacheSize: -1}) // deob off by default

	obf := obfuscate.Registry(7)["Jfogs"]
	osrc, err := obf.Obfuscate(samples[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	plain := eng.ScanSource(ctx, "a.js", osrc)
	if len(plain.DeobPasses) != 0 {
		t.Fatalf("DeobPasses = %v without override", plain.DeobPasses)
	}
	forced := eng.ScanSource(WithDeobfuscate(ctx, true), "b.js", osrc)
	if forced.Err != nil {
		t.Fatal(forced.Err)
	}
	if len(forced.DeobPasses) == 0 {
		t.Fatal("override did not run the deobfuscation stage")
	}
}

// BenchmarkScanObfuscated measures the end-to-end scan cost of obfuscated
// input with the deobfuscation stage off and on — the price of the
// robustness the lift table buys. Cache disabled so every iteration pays
// the full pipeline.
func BenchmarkScanObfuscated(b *testing.B) {
	det, samples := trainedDetector(b)
	var mal string
	for _, s := range samples {
		if s.Malicious {
			mal = s.Source
			break
		}
	}
	reg := obfuscate.Registry(7)
	for _, name := range obfuscate.PaperOrder() {
		osrc, err := reg[name].Obfuscate(mal)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []struct {
			label string
			cfg   deobfuscate.Config
		}{
			{"deob=off", deobfuscate.Config{}},
			{"deob=on", deobOnCfg()},
		} {
			eng := New(det, Config{CacheSize: -1, Deobfuscate: mode.cfg})
			ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				b.SetBytes(int64(len(osrc)))
				for i := 0; i < b.N; i++ {
					if res := eng.ScanSource(ctx, "bench.js", osrc); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			})
		}
	}
}
