package lexer

import (
	"errors"
	"strings"
	"testing"
)

func kindsOf(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
		t.Fatalf("Tokenize(%q): missing EOF terminator", src)
	}
	return toks[:len(toks)-1]
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks := kindsOf(t, "var foo = bar; function baz() {}")
	want := []struct {
		kind Kind
		lit  string
	}{
		{Keyword, "var"}, {Ident, "foo"}, {Punct, "="}, {Ident, "bar"},
		{Punct, ";"}, {Keyword, "function"}, {Ident, "baz"},
		{Punct, "("}, {Punct, ")"}, {Punct, "{"}, {Punct, "}"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Literal != w.lit {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.lit)
		}
	}
}

func TestDollarAndUnderscoreIdents(t *testing.T) {
	toks := kindsOf(t, "$fog$ _0x1a2b $élan")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for _, tok := range toks {
		if tok.Kind != Ident {
			t.Errorf("%v: want Ident", tok)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		"42":      "42",
		"3.14":    "3.14",
		".5":      ".5",
		"1e3":     "1e3",
		"1.5e-2":  "1.5e-2",
		"0x1F":    "0x1F",
		"0XABCDE": "0XABCDE",
	}
	for src, want := range cases {
		toks := kindsOf(t, src)
		if len(toks) != 1 || toks[0].Kind != Number || toks[0].Literal != want {
			t.Errorf("Tokenize(%q) = %v, want one Number %q", src, toks, want)
		}
	}
}

func TestMalformedNumbers(t *testing.T) {
	for _, src := range []string{"0x", "1e", "1e+"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	cases := map[string]string{
		`"hello"`:      "hello",
		`'single'`:     "single",
		`"a\nb"`:       "a\nb",
		`"tab\there"`:  "tab\there",
		`"\x41\x42"`:   "AB",
		`"A"`:          "A",
		`"q\"uote"`:    `q"uote`,
		`"back\\s"`:    `back\s`,
		`"\0"`:         "\x00",
		`'it\'s'`:      "it's",
		"`template x`": "template x",
	}
	for src, want := range cases {
		toks := kindsOf(t, src)
		if len(toks) != 1 || toks[0].Literal != want {
			t.Errorf("Tokenize(%s) literal = %q, want %q", src, toks[0].Literal, want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	for _, src := range []string{`"abc`, `'abc`, "`abc", `"ab` + "\n" + `c"`} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestRegexVersusDivision(t *testing.T) {
	// After an identifier, '/' is division.
	toks := kindsOf(t, "a / b")
	if toks[1].Kind != Punct || toks[1].Literal != "/" {
		t.Errorf("a / b: middle token %v, want division", toks[1])
	}
	// At expression start, '/' begins a regex.
	toks = kindsOf(t, "/ab+c/gi")
	if len(toks) != 1 || toks[0].Kind != Regex || toks[0].Literal != "/ab+c/gi" {
		t.Errorf("regex literal: %v", toks)
	}
	// After '=', a regex.
	toks = kindsOf(t, "x = /a[/]b/")
	last := toks[len(toks)-1]
	if last.Kind != Regex {
		t.Errorf("regex with slash in class: %v", last)
	}
	// After return keyword, a regex.
	toks = kindsOf(t, "return /x/")
	if toks[1].Kind != Regex {
		t.Errorf("return /x/: %v", toks[1])
	}
	// After ')' it is division.
	toks = kindsOf(t, "(a) / 2")
	if toks[3].Kind != Punct || toks[3].Literal != "/" {
		t.Errorf("(a) / 2: %v", toks[3])
	}
}

func TestComments(t *testing.T) {
	toks := kindsOf(t, "a // line comment\nb /* block */ c")
	if len(toks) != 3 {
		t.Fatalf("comments not skipped: %v", toks)
	}
	if !toks[1].NewlineBefore {
		t.Error("newline before b not recorded")
	}
	// Multiline block comment implies a newline.
	toks = kindsOf(t, "a /* x\ny */ b")
	if !toks[1].NewlineBefore {
		t.Error("newline inside block comment not recorded")
	}
}

func TestNewlineTracking(t *testing.T) {
	toks := kindsOf(t, "a\nb c")
	if !toks[1].NewlineBefore {
		t.Error("b should have NewlineBefore")
	}
	if toks[2].NewlineBefore {
		t.Error("c should not have NewlineBefore")
	}
}

func TestPunctuatorMaximalMunch(t *testing.T) {
	cases := map[string][]string{
		"===":   {"==="},
		"==!":   {"==", "!"},
		">>>=":  {">>>="},
		"a+++b": {"a", "++", "+", "b"},
		"a>>>2": {"a", ">>>", "2"},
		"x<<=1": {"x", "<<=", "1"},
		"p=>q":  {"p", "=>", "q"},
		"a**b":  {"a", "**", "b"},
		"!==x":  {"!==", "x"},
	}
	for src, want := range cases {
		toks := kindsOf(t, src)
		if len(toks) != len(want) {
			t.Errorf("Tokenize(%q) = %v, want %v", src, toks, want)
			continue
		}
		for i, w := range want {
			if toks[i].Literal != w {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", src, i, toks[i].Literal, w)
			}
		}
	}
}

func TestPositions(t *testing.T) {
	toks := kindsOf(t, "a\n  bb")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("bb at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Tokenize("var x = \"abc")
	if err == nil {
		t.Fatal("expected error")
	}
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 1 {
		t.Errorf("error line = %d, want 1", se.Line)
	}
	if !strings.Contains(se.Error(), "unterminated") {
		t.Errorf("error message %q", se.Error())
	}
}

func asSyntaxError(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}

func TestIsKeyword(t *testing.T) {
	for _, kw := range []string{"var", "function", "typeof", "instanceof", "null", "true"} {
		if !IsKeyword(kw) {
			t.Errorf("IsKeyword(%q) = false", kw)
		}
	}
	for _, id := range []string{"foo", "let1", "undefined", "document"} {
		if IsKeyword(id) {
			t.Errorf("IsKeyword(%q) = true", id)
		}
	}
}

func TestKindString(t *testing.T) {
	if EOF.String() != "EOF" || Ident.String() != "Ident" {
		t.Error("Kind.String misnamed")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestLineContinuation(t *testing.T) {
	toks := kindsOf(t, "\"ab\\\ncd\"")
	if toks[0].Literal != "abcd" {
		t.Errorf("line continuation literal = %q, want abcd", toks[0].Literal)
	}
}

// TestLineTerminatorContinuations covers a backslash before each line
// terminator ECMAScript knows: LF, CR, CRLF, LS (U+2028) and PS (U+2029).
// Each continues the literal and contributes nothing to its value.
func TestLineTerminatorContinuations(t *testing.T) {
	for _, term := range []string{"\n", "\r", "\r\n", "\u2028", "\u2029"} {
		for _, q := range []string{"'", "\"", "`"} {
			src := q + "a\\" + term + "b" + q
			toks := kindsOf(t, src)
			if len(toks) != 1 || toks[0].Literal != "ab" || toks[0].Raw != src {
				t.Errorf("Tokenize(%q) = %v, want one literal \"ab\"", src, toks)
			}
		}
	}
	// A continued line still counts as a line.
	toks := kindsOf(t, "'a\\\r\nb' x")
	if toks[1].Line != 2 || toks[1].Col != 4 {
		t.Errorf("token after CRLF continuation at %d:%d, want 2:4", toks[1].Line, toks[1].Col)
	}
}

// TestBracedUnicodeEscapes covers \u{…}: any number of hex digits up to
// U+10FFFF, in strings and templates.
func TestBracedUnicodeEscapes(t *testing.T) {
	cases := map[string]string{
		`'\u{41}'`:        "A",
		`"\u{0041}x"`:     "Ax",
		`'\u{1F600}'`:     "\U0001F600",
		`'\u{10FFFF}'`:    "\U0010FFFF",
		`'\u{000000061}'`: "a",
		"`\\u{e9}`":       "é",
	}
	for src, want := range cases {
		toks := kindsOf(t, src)
		if len(toks) != 1 || toks[0].Literal != want {
			t.Errorf("Tokenize(%s) = %v, want literal %q", src, toks, want)
		}
	}
	for _, src := range []string{`'\u{110000}'`, `'\u{}'`, `'\u{41'`, `'\u{4g}'`, `'\u{`} {
		_, err := Tokenize(src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Msg != `malformed \u escape` || se.Col != 3 {
			t.Errorf("Tokenize(%s): err %v, want malformed \\u escape at 1:3", src, err)
		}
	}
}
