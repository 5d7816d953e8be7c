package lexer_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/lexer"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
)

// fixedEscape reports whether src holds one of the escapes the reference
// lexer decodes wrongly: a backslash before CR, LS or PS (a line
// continuation), or \u{…}. These are the only inputs on which the two
// lexers may disagree.
func fixedEscape(src string) bool {
	for i := strings.IndexByte(src, '\\'); i >= 0 && i+1 < len(src); {
		rest := src[i+1:]
		if rest[0] == '\r' || strings.HasPrefix(rest, "u{") ||
			strings.HasPrefix(rest, "\u2028") || strings.HasPrefix(rest, "\u2029") {
			return true
		}
		j := strings.IndexByte(rest[1:], '\\')
		if j < 0 {
			break
		}
		i += 2 + j
	}
	return false
}

// sameAsReference checks that the lexer and the reference lexer produce the
// same token stream (every Token field) or the same error for src under
// the given token cap.
func sameAsReference(t *testing.T, name, src string, maxTokens int) {
	t.Helper()
	got, gerr := lexer.TokenizeLimit(src, maxTokens)
	want, werr := refTokenizeLimit(src, maxTokens)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s (cap %d): error %v, reference %v", name, maxTokens, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() ||
			errors.Is(gerr, lexer.ErrTooManyTokens) != errors.Is(werr, lexer.ErrTooManyTokens) {
			t.Fatalf("%s (cap %d): error %v, reference %v", name, maxTokens, gerr, werr)
		}
		var gse, wse *lexer.SyntaxError
		if errors.As(gerr, &gse) != errors.As(werr, &wse) || (gse != nil && *gse != *wse) {
			t.Fatalf("%s (cap %d): error %#v, reference %#v", name, maxTokens, gerr, werr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s (cap %d): %d tokens, reference %d", name, maxTokens, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (cap %d): token %d = %+v, reference %+v", name, maxTokens, i, got[i], want[i])
		}
	}
}

var (
	oracleOnce sync.Once
	oracleSrcs map[string]string
)

// oracleInputs returns the load benchmark's script pools: the pristine
// corpus clean and through each of the paper's four obfuscators, raw and
// deobfuscated, plus the crawl and hot-set corpora. -short shrinks every
// pool to a tenth.
func oracleInputs(tb testing.TB) map[string]string {
	tb.Helper()
	oracleOnce.Do(func() {
		scale := func(n int) int {
			if testing.Short() {
				return (n + 9) / 10
			}
			return n
		}
		out := map[string]string{}
		add := func(prefix string, samples []corpus.Sample) {
			for i, s := range samples {
				out[prefix+"/"+strconv.Itoa(i)] = s.Source
			}
		}
		pristine := corpus.Generate(corpus.Config{Benign: scale(175), Malicious: scale(175), Seed: 1102, Pristine: true})
		add("clean", pristine)
		reg := obfuscate.Registry(1103)
		pipe := deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true})
		for _, tool := range obfuscate.PaperOrder() {
			for i, s := range pristine {
				src, err := reg[tool].Obfuscate(s.Source)
				if err != nil {
					continue
				}
				out[tool+"/"+strconv.Itoa(i)] = src
				if norm, _, err := pipe.Normalize(context.Background(), src, parser.Limits{}); err == nil {
					out[tool+"/normalized/"+strconv.Itoa(i)] = norm
				}
			}
		}
		add("crawl", corpus.Generate(corpus.Config{Benign: scale(2470), Malicious: scale(130), Seed: 1105}))
		add("hot", corpus.Generate(corpus.Config{Benign: scale(243), Malicious: scale(13), Seed: 1104}))
		oracleSrcs = out
	})
	return oracleSrcs
}

// edgeInputs exercise every scanner branch, each error and the token cap.
var edgeInputs = []string{
	"",
	"   \n\t // only a comment",
	"/* multi\nline */ a /* unterminated\n",
	"a\n/re/g.test(b) / c / d",
	"x = y / 2 / z; return /[/\\]]+/i",
	"this / 2; null / 3; true / 4; false / 5; typeof /x/",
	"a++ / 2; b-- / 3; (c) / 4; [d] / 5; {} /re/",
	"/a\\\nb/",
	"'a\\nb\\tc\\x41\\u0042\\'\\\"\\\\\\0\\b\\f\\v\\r'",
	"\"no escapes at all\" 'é 世' `tpl\nwith\nlines`",
	"`esc \\x41 \\u00e9 \\` and raw é`",
	"'line\\\ncontinued'",
	"'\\é\\世'",
	"'\\uD83D\\uDE00'",
	"0x1F 0XAB .5 1.5e-3 2E+8 3e 0x",
	"'\\x4' '\\u12' '\\u12g4'",
	"'unterminated\n'",
	"\"unterminated",
	"`unterminated",
	"'\\",
	"/unterminated\n/",
	">>>= === !== >>> <<= >>= **= == != <= >= && || ++ -- += -= *= /= %= &= |= ^= << >> => ** { } ( ) [ ] ; , < > + - * % & | ^ ! ~ ? : = .",
	"a #",
	"var euro = 1; €",
	"\xff\xfe",
	"$fog$ _0x1a2b $élan aé世b",
	"if (a) {\r\n b();\r\n}",
	"break case catch continue debugger default delete do else finally for function if in instanceof new return switch this throw try typeof var void while with let const null true false",
}

// TestTokenStreamMatchesReference pins the streaming lexer to the reference
// lexer, token for token and error for error, on the benchmark's script
// pools and on inputs that reach every scanner branch.
func TestTokenStreamMatchesReference(t *testing.T) {
	for i, src := range edgeInputs {
		if fixedEscape(src) {
			t.Fatalf("edge input %d holds a fixed escape", i)
		}
		for _, limit := range []int{0, 1, 5} {
			sameAsReference(t, "edge/"+strconv.Itoa(i), src, limit)
		}
	}
	for name, src := range oracleInputs(t) {
		if fixedEscape(src) {
			t.Fatalf("%s holds a fixed escape", name)
		}
		sameAsReference(t, name, src, 0)
		sameAsReference(t, name, src, 100)
	}
}

// FuzzReferenceLexer is the differential form of the oracle: on any input
// without a fixed escape, the lexer and the reference lexer agree.
func FuzzReferenceLexer(f *testing.F) {
	for _, src := range edgeInputs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if fixedEscape(src) {
			return
		}
		sameAsReference(t, "fuzz", src, 0)
		sameAsReference(t, "fuzz", src, 7)
	})
}

// BenchmarkTokenize lexes the output of each of the paper's four
// obfuscators over a slice of the pristine corpus, one Next at a time as
// the parser does, so the cost is the lexer's alone.
func BenchmarkTokenize(b *testing.B) {
	samples := corpus.Generate(corpus.Config{Benign: 20, Malicious: 20, Seed: 1102, Pristine: true})
	reg := obfuscate.Registry(1103)
	for _, tool := range obfuscate.PaperOrder() {
		var srcs []string
		bytes := 0
		for _, s := range samples {
			src, err := reg[tool].Obfuscate(s.Source)
			if err != nil {
				continue
			}
			srcs = append(srcs, src)
			bytes += len(src)
		}
		b.Run(tool, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					lx := lexer.New(src)
					for {
						tok, err := lx.Next()
						if err != nil {
							b.Fatal(err)
						}
						if tok.Kind == lexer.EOF {
							break
						}
					}
				}
			}
		})
	}
}
