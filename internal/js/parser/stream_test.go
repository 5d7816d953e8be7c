package parser_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/lexer"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
)

// TestErrorPrecedence pins which error wins when an input holds more than
// one. The parser lexes one window ahead of itself, yet every case returns
// what it returned when the whole input was lexed before parsing began: a
// lex error or token-cap overrun anywhere beats a parse or depth error.
func TestErrorPrecedence(t *testing.T) {
	deep := "var x = " + strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300) + ";"
	many := strings.Repeat("a = 1;\n", 400) // well past one window
	const (
		parseErr = `expected identifier in var declaration, found Punct("=")`
		capErr   = "lexer: token limit exceeded"
		deepErr  = "parser: recursion depth limit exceeded (limit 100)"
	)
	cases := []struct {
		name, src string
		lim       parser.Limits
		want      string
	}{
		{"parse error", "var = 1;", parser.Limits{}, "1:5: " + parseErr + "@1:5"},
		{"parse error in a later window", many + "var = 1;" + many, parser.Limits{}, "401:5: " + parseErr + "@401:5"},
		{"parse error then lex error", "var = 1; \x01", parser.Limits{}, `1:10: unexpected character '\x01'`},
		{"parse error then lex error windows later", "var = 1;\n" + many + "'open", parser.Limits{}, "402:6: unterminated string literal"},
		{"lex error then parse error", "a \x01 var = 1;", parser.Limits{}, `1:3: unexpected character '\x01'`},
		{"parse error past the token cap", "var = 1; a b c d e", parser.Limits{MaxTokens: 5}, capErr + " (limit 5)"},
		{"parse error past the token cap windows later", "var = 1;" + many, parser.Limits{MaxTokens: 1000}, capErr + " (limit 1000)"},
		{"token cap before lex error", "a b c d e f \x01", parser.Limits{MaxTokens: 5}, capErr + " (limit 5)"},
		{"depth error", deep, parser.Limits{MaxDepth: 100}, deepErr},
		{"depth error then lex error", deep + many + "\x01", parser.Limits{MaxDepth: 100}, `401:1: unexpected character '\x01'`},
		{"depth error past the token cap", deep + many, parser.Limits{MaxDepth: 100, MaxTokens: 1000}, capErr + " (limit 1000)"},
	}
	for _, c := range cases {
		_, err := parser.ParseWithLimits(c.src, c.lim)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err %v, want %s", c.name, err, c.want)
			continue
		}
		var se *lexer.SyntaxError
		var pe *parser.ParseError
		switch {
		case strings.HasPrefix(c.want, capErr):
			if !errors.Is(err, lexer.ErrTooManyTokens) {
				t.Errorf("%s: %v does not wrap ErrTooManyTokens", c.name, err)
			}
		case c.want == deepErr:
			if !errors.Is(err, parser.ErrTooDeep) {
				t.Errorf("%s: %v does not wrap ErrTooDeep", c.name, err)
			}
		case strings.Contains(c.want, parseErr):
			if !errors.As(err, &pe) {
				t.Errorf("%s: %T is not a *ParseError", c.name, err)
			}
		default:
			if !errors.As(err, &se) {
				t.Errorf("%s: %T is not a *lexer.SyntaxError", c.name, err)
			}
		}
	}
}

// TestCancelledBeforeLexing pins that lexing is under the cancellation
// poll: on a large input whose only error is its last byte, a closed
// Cancel stops the parse at once instead of lexing to that error.
func TestCancelledBeforeLexing(t *testing.T) {
	src := strings.Repeat("a;", 1<<20) + "\x01"
	cancel := make(chan struct{})
	close(cancel)
	if _, err := parser.ParseWithLimits(src, parser.Limits{Cancel: cancel}); !errors.Is(err, parser.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if _, err := parser.Parse(src); err == nil || !strings.HasSuffix(err.Error(), `unexpected character '\x01'`) {
		t.Fatalf("uncancelled: want the trailing lex error, got %v", err)
	}
}

// TestWindowSizeInvisible parses the benchmark's obfuscated pool and the
// pathological corpus through token windows of several sizes, down to the
// minimum of two: the program or error must not depend on where the window
// boundaries fall.
func TestWindowSizeInvisible(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	samples := corpus.Generate(corpus.Config{Benign: n, Malicious: n, Seed: 1102, Pristine: true})
	reg := obfuscate.Registry(1103)
	srcs := map[string]string{}
	for i, s := range samples {
		srcs["clean/"+strconv.Itoa(i)] = s.Source
		tool := obfuscate.PaperOrder()[i%4]
		if src, err := reg[tool].Obfuscate(s.Source); err == nil {
			srcs[tool+"/"+strconv.Itoa(i)] = src
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "pathological"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "pathological", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		srcs[e.Name()] = string(data)
	}
	for i, src := range []string{"", "a", "a b", "var = 1; \x01", "x = 'open", strings.Repeat("(", 50)} {
		srcs["edge/"+strconv.Itoa(i)] = src
	}
	for name, src := range srcs {
		for _, lim := range []parser.Limits{{}, {MaxDepth: 30, MaxTokens: 500}} {
			want, _, werr := parser.ParseTimed(src, lim)
			for _, w := range []int{2, 3, 17} {
				got, _, gerr := parser.ParseWindow(src, lim, w)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("%s, window %d, %+v: err %v, want %v", name, w, lim, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, window %d, %+v: program differs", name, w, lim)
				}
			}
		}
	}
}
