package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/lexer"
	"jsrevealer/internal/js/parser"
)

// The robustness tests share one small detector; training dominates their
// runtime otherwise.
var (
	robustOnce sync.Once
	robustDet  *Detector
	robustTest []corpus.Sample
	robustErr  error
)

func robustDetector(t *testing.T) (*Detector, []corpus.Sample) {
	t.Helper()
	robustOnce.Do(func() {
		train, test := smallSplit(t, 30, 3)
		robustTest = test
		robustDet, robustErr = Train(train, nil, smallOptions(3))
	})
	if robustErr != nil {
		t.Fatalf("Train: %v", robustErr)
	}
	return robustDet, robustTest
}

// TestDetectEmptyInput: an empty script must produce a verdict (the
// zero-feature vector is classifiable), not an error or panic.
func TestDetectEmptyInput(t *testing.T) {
	det, _ := robustDetector(t)
	if _, err := det.Detect(""); err != nil {
		t.Fatalf("Detect(\"\"): %v", err)
	}
}

// TestDetectNonUTF8 feeds byte garbage; the pipeline must return a bounded
// parse error instead of hanging or exhausting memory (the lexer used to
// spin forever emitting empty tokens for such bytes).
func TestDetectNonUTF8(t *testing.T) {
	det, _ := robustDetector(t)
	done := make(chan error, 1)
	go func() {
		_, err := det.Detect("var a = 1; \xff\xfe\x80\x81")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want a parse error for non-UTF-8 input, got nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Detect hung on non-UTF-8 input")
	}
}

// TestDetectDeepNesting: 100k nested parentheses must hit the recursion
// guard, not the goroutine stack.
func TestDetectDeepNesting(t *testing.T) {
	det, _ := robustDetector(t)
	src := "var x = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + ";"
	_, err := det.Detect(src)
	if !errors.Is(err, parser.ErrTooDeep) {
		t.Fatalf("want ErrTooDeep, got %v", err)
	}
}

// TestDetect10MBFile: a generated 10MB script must yield a bounded outcome.
// With a token cap the guard trips fast; without one, the linear-time
// pipeline must still finish (no hang) inside a generous budget.
func TestDetect10MBFile(t *testing.T) {
	if testing.Short() {
		t.Skip("10MB pipeline run in -short mode")
	}
	det, _ := robustDetector(t)
	var sb strings.Builder
	for sb.Len() < 10<<20 {
		sb.WriteString("var v0 = \"padding padding padding\"; function f1(a, b) { return a + b * 2; }\n")
	}
	src := sb.String()

	// Guarded: the token cap turns the oversized input into a fast error.
	_, err := det.PrepareBatch(context.Background(), src, parser.Limits{MaxTokens: 100_000})
	if !errors.Is(err, lexer.ErrTooManyTokens) {
		t.Fatalf("want ErrTooManyTokens, got %v", err)
	}

	// Unguarded: must complete (verdict, no error) in bounded time.
	done := make(chan error, 1)
	go func() {
		_, err := det.Detect(src)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Detect(10MB): %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("Detect hung on the 10MB file")
	}
}

// TestDetectCtxDeadline: an already expired context aborts detection
// immediately with a context error.
func TestDetectCtxDeadline(t *testing.T) {
	det, _ := robustDetector(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.DetectCtx(ctx, "var a = 1;"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestDetectConcurrent hammers one detector from many goroutines; with
// `go test -race` this verifies the timing accumulators are properly
// synchronized.
func TestDetectConcurrent(t *testing.T) {
	det, test := robustDetector(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				s := test[(w+i)%len(test)]
				if _, err := det.DetectCtx(context.Background(), s.Source); err != nil {
					t.Errorf("concurrent Detect: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
}
