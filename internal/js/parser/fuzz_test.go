package parser

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pathologicalInputs loads the checked-in regression corpus: inputs that
// historically crashed, hung, or overflowed the stack of naive parsers.
func pathologicalInputs(t testing.TB) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "pathological")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestPathologicalCorpusIsBounded parses every checked-in pathological
// input and requires a decision (AST or structured error) in bounded time,
// with no panic and no stack overflow.
func TestPathologicalCorpusIsBounded(t *testing.T) {
	for name, src := range pathologicalInputs(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			prog, err := ParseWithLimits(src, Limits{})
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("parse took %v, not bounded", d)
			}
			if prog == nil && err == nil {
				t.Fatal("no AST and no error")
			}
			if strings.HasPrefix(name, "deep_") && !errors.Is(err, ErrTooDeep) {
				// Every deep_* case nests beyond DefaultMaxDepth and must be
				// cut off by the depth guard specifically.
				t.Fatalf("want ErrTooDeep, got %v", err)
			}
		})
	}
}

// TestDepthLimitConfigurable checks the guard tracks the configured budget.
func TestDepthLimitConfigurable(t *testing.T) {
	nested := "var x = " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + ";"
	if _, err := ParseWithLimits(nested, Limits{MaxDepth: 100}); !errors.Is(err, ErrTooDeep) {
		t.Errorf("MaxDepth 100: want ErrTooDeep, got %v", err)
	}
	if _, err := ParseWithLimits(nested, Limits{MaxDepth: 1000}); err != nil {
		t.Errorf("MaxDepth 1000: unexpected error %v", err)
	}
}

// TestParseCancellation checks Limits.Cancel aborts a parse in flight.
func TestParseCancellation(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	// Enough tokens that the cancellation poll (every 256 frames) fires.
	src := strings.Repeat("var a = 1;\n", 5000)
	if _, err := ParseWithLimits(src, Limits{Cancel: cancel}); !errors.Is(err, ErrCancelled) {
		t.Errorf("want ErrCancelled, got %v", err)
	}
}

// FuzzParse asserts the parser's core robustness contract on arbitrary
// bytes: it returns an AST or an error — never a panic, hang, or stack
// overflow — and respects its depth and token budgets.
func FuzzParse(f *testing.F) {
	for _, src := range pathologicalInputs(f) {
		f.Add(src)
	}
	f.Add("var x = function(a, b) { return a + b; };")
	f.Add("for (var i = 0; i < 10; i++) { o[i] = {k: [1,,2]}; }")
	f.Add("try { throw /re/g; } catch (e) { l: while (1) break l; }")
	f.Add("switch (x) { case 1: default: new new Date()(); }")
	f.Add("var s = 'a\\\r\nb';")
	f.Add("var s = '\\u{41}';")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseWithLimits(src, Limits{MaxDepth: 500, MaxTokens: 100_000})
		if prog == nil && err == nil {
			t.Fatal("no AST and no error")
		}
	})
}
