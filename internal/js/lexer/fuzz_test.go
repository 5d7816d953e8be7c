package lexer

import (
	"errors"
	"strings"
	"testing"
)

// TestTokenizeLimit checks the token-count guard trips with its sentinel.
func TestTokenizeLimit(t *testing.T) {
	src := strings.Repeat("a ", 100)
	if _, err := TokenizeLimit(src, 10); !errors.Is(err, ErrTooManyTokens) {
		t.Errorf("want ErrTooManyTokens, got %v", err)
	}
	if toks, err := TokenizeLimit(src, 0); err != nil || len(toks) != 101 {
		t.Errorf("no limit: %d tokens, err %v", len(toks), err)
	}
}

// TestInvalidUTF8Terminates is the regression test for the lexer spinning
// forever on bytes that are neither ASCII nor valid UTF-8: it must error
// out, not emit empty tokens until memory is exhausted.
func TestInvalidUTF8Terminates(t *testing.T) {
	for _, src := range []string{
		"\xff\xfe",
		"var a = 1; \x80\x81",
		"\xf0\x28\x8c\x28",
		"var euro = 1; €",
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): want error for non-identifier rune, got nil", src)
		}
	}
}

// FuzzLex asserts the lexer terminates on arbitrary bytes with tokens or an
// error — never a panic or an infinite loop.
func FuzzLex(f *testing.F) {
	f.Add("var x = 'str' + `tpl` + /re/gi; // comment")
	f.Add("\"unterminated")
	f.Add("`unterminated")
	f.Add("/* unterminated")
	f.Add("/unterminated")
	f.Add("0x")
	f.Add("1e")
	f.Add("\\u12")
	f.Add("\xff\xfe\x80")
	f.Add(strings.Repeat("\\x41", 500))
	f.Add("aé世b")
	f.Add("'a\\\r\nb'")
	f.Add("'\\u{41}'")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := TokenizeLimit(src, 1<<20)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			t.Fatalf("token stream not EOF-terminated (%d tokens)", len(toks))
		}
	})
}
