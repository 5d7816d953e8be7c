package core

import (
	"context"
	"math"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/ml/nn"
	"jsrevealer/internal/obfuscate"
)

// referenceSources returns the obfuscated and obfuscated→deobfuscated
// variants of a few test scripts under each of the paper's four tools, plus
// a byte-identical repeat and a script with no paths at all.
func referenceSources(t *testing.T, test []corpus.Sample, seed int64) []string {
	t.Helper()
	ctx := context.Background()
	pipe := deobfuscate.NewPipeline(deobfuscate.Config{})
	tools := obfuscate.Registry(seed)
	var srcs []string
	for _, name := range obfuscate.PaperOrder() {
		for _, s := range test[:5] {
			obf, err := tools[name].Obfuscate(s.Source)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			deob, _, err := pipe.Normalize(ctx, obf, parser.Limits{})
			if err != nil {
				deob = obf
			}
			srcs = append(srcs, obf, deob)
		}
	}
	// A repeat inside one 16-script batch, and an empty script.
	return append(srcs[:8], append([]string{srcs[3], ""}, srcs[8:]...)...)
}

// TestClassifyBatchMatchesReference pins ClassifyBatch's per-unique-path
// kernel to the reference pipeline: every script's feature vector equals
// featurize(Embed(keys)) bit for bit, and every verdict equals
// Predict(featurize(Embed(keys))), for two corpus seeds × the paper's four obfuscators ×
// deobfuscation off/on, in batches of 1 and 16, with attention and with
// uniform weights.
func TestClassifyBatchMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 8} {
		det, test := trainSmall(t, 40, seed)
		srcs := referenceSources(t, test, seed)
		prepared := make([]any, len(srcs))
		empty := false
		for i, src := range srcs {
			p, err := det.PrepareBatch(ctx, src, parser.Limits{})
			if err != nil {
				t.Fatalf("seed %d script %d: PrepareBatch: %v", seed, i, err)
			}
			prepared[i] = p
			empty = empty || len(p.(*PreparedScript).keys) == 0
		}
		if !empty {
			t.Fatal("no zero-path script in the batch")
		}
		for _, uniform := range []bool{false, true} {
			det.opts.UniformWeights = uniform
			for _, size := range []int{1, 16} {
				for lo := 0; lo < len(prepared); lo += size {
					hi := min(lo+size, len(prepared))
					checkBatch(t, det, srcs[lo:hi], prepared[lo:hi])
				}
			}
		}
		det.opts.UniformWeights = false
	}
}

// checkBatch compares one batch's kernel features and verdicts with the
// reference pipeline's.
func checkBatch(t *testing.T, det *Detector, srcs []string, prepared []any) {
	t.Helper()
	ctx := context.Background()
	keySets := make([][]nn.PathKey, len(prepared))
	for i, p := range prepared {
		keySets[i] = p.(*PreparedScript).keys
	}
	pt := det.newPathTable(keySets)
	verdicts, err := det.ClassifyBatch(ctx, prepared)
	if err != nil {
		t.Fatalf("ClassifyBatch: %v", err)
	}
	for i, keys := range keySets {
		want := det.featurize(det.model.Embed(keys))
		got := pt.features(i)
		if len(got) != len(want) {
			t.Fatalf("script %q: %d features, want %d", head(srcs[i]), len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("script %q (uniform=%v, batch %d): feature %d = %v, want %v",
					head(srcs[i]), det.opts.UniformWeights, len(prepared), j, got[j], want[j])
			}
		}
		if ref := det.classifier.Predict(want); verdicts[i] != ref {
			t.Errorf("script %q: ClassifyBatch %v, reference %v", head(srcs[i]), verdicts[i], ref)
		}
	}
}

func head(s string) string { return s[:min(len(s), 40)] }
