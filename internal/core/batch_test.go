package core

import (
	"context"
	"testing"

	"jsrevealer/internal/js/parser"
)

// TestBatchMatchesPerScript pins the batched API's contract: for every test
// script, one PrepareBatch + ClassifyBatch over the whole set produces
// exactly the verdict Detect (a batch of one) produces.
func TestBatchMatchesPerScript(t *testing.T) {
	det, test := trainSmall(t, 50, 3)
	ctx := context.Background()

	prepared := make([]any, 0, len(test))
	var kept []int
	for i, s := range test {
		p, err := det.PrepareBatch(ctx, s.Source, parser.Limits{})
		if err != nil {
			t.Fatalf("PrepareBatch %d: %v", i, err)
		}
		prepared = append(prepared, p)
		kept = append(kept, i)
	}
	verdicts, err := det.ClassifyBatch(ctx, prepared)
	if err != nil {
		t.Fatalf("ClassifyBatch: %v", err)
	}
	if len(verdicts) != len(prepared) {
		t.Fatalf("got %d verdicts for %d prepared", len(verdicts), len(prepared))
	}
	for bi, ti := range kept {
		want, err := det.DetectCtx(ctx, test[ti].Source)
		if err != nil {
			t.Fatalf("DetectCtx %d: %v", ti, err)
		}
		if verdicts[bi] != want {
			t.Errorf("script %d: batch=%v per-script=%v", ti, verdicts[bi], want)
		}
	}
}

func TestBatchErrors(t *testing.T) {
	det, test := trainSmall(t, 40, 4)
	ctx := context.Background()

	// Unparseable input fails at prepare.
	if _, err := det.PrepareBatch(ctx, "function ((", parser.Limits{}); err == nil {
		t.Error("PrepareBatch accepted unparseable input")
	}
	// Foreign prepared state is rejected, not misclassified.
	if _, err := det.ClassifyBatch(ctx, []any{"not prepared"}); err == nil {
		t.Error("ClassifyBatch accepted foreign state")
	}
	// Untrained detectors refuse both halves.
	var blank Detector
	if _, err := blank.PrepareBatch(ctx, "x()", parser.Limits{}); err != ErrNotTrained {
		t.Errorf("untrained PrepareBatch err = %v", err)
	}
	if _, err := blank.ClassifyBatch(ctx, nil); err != ErrNotTrained {
		t.Errorf("untrained ClassifyBatch err = %v", err)
	}
	// Cancelled context aborts.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := det.PrepareBatch(cctx, test[0].Source, parser.Limits{}); err == nil {
		t.Error("PrepareBatch ignored cancelled context")
	}
	p, err := det.PrepareBatch(ctx, test[0].Source, parser.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ClassifyBatch(cctx, []any{p}); err == nil {
		t.Error("ClassifyBatch ignored cancelled context")
	}
	// Empty batch is a no-op.
	if out, err := det.ClassifyBatch(ctx, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: out=%v err=%v", out, err)
	}
}
