package lexer

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrTooManyTokens is returned (wrapped) by a lexer with a token cap once
// the input produces more tokens than the cap, so adversarially large
// inputs are rejected in bounded time instead of exhausting memory.
var ErrTooManyTokens = errors.New("lexer: token limit exceeded")

// SyntaxError describes a lexing failure with its source position.
type SyntaxError struct {
	Msg  string
	Line int
	Col  int
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes a JavaScript source string one token at a time. It keeps
// no token history beyond the previous token, so a consumer that needs only
// a bounded lookahead (the parser) streams the input without holding its
// token stream.
type Lexer struct {
	src  string
	pos  int
	line int
	// lineStart is the offset of the current line's first byte; columns
	// count bytes, so the column at pos is pos-lineStart+1.
	lineStart int

	// newlineSeen is set when a line terminator was consumed since the last
	// emitted token.
	newlineSeen bool
	// prevKind and prevLit describe the previously emitted token (prevKind
	// is zero before the first), used to decide whether a '/' starts a
	// regular expression or a division operator.
	prevKind Kind
	prevLit  string

	// maxTokens caps the non-EOF tokens Next emits (<= 0: no cap); count
	// is how many it has emitted.
	maxTokens, count int
}

// New returns a lexer over src with no token cap.
func New(src string) *Lexer {
	return NewLimit(src, 0)
}

// NewLimit returns a lexer over src whose Next fails with an error wrapping
// ErrTooManyTokens once more than maxTokens tokens (excluding the final
// EOF) have been produced. maxTokens <= 0 disables the cap.
func NewLimit(src string, maxTokens int) *Lexer {
	return &Lexer{src: src, line: 1, maxTokens: maxTokens}
}

// Tokenize scans the entire input and returns the token stream, terminated
// by an EOF token.
func Tokenize(src string) ([]Token, error) {
	return TokenizeLimit(src, 0)
}

// TokenizeLimit scans the entire input like Tokenize under NewLimit's token
// cap.
func TokenizeLimit(src string, maxTokens int) ([]Token, error) {
	lx := NewLimit(src, maxTokens)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == EOF {
			return out, nil
		}
	}
}

// Next returns the next token in the stream. After the end of the input it
// keeps returning the EOF token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	startLine, startCol := l.line, l.col()
	nl := l.newlineSeen
	l.newlineSeen = false

	if l.pos >= len(l.src) {
		l.prevKind, l.prevLit = EOF, ""
		return Token{Kind: EOF, Line: startLine, Col: startCol, NewlineBefore: nl}, nil
	}

	c := l.src[l.pos]
	var (
		tok Token
		err error
	)
	switch {
	case c < utf8.RuneSelf && asciiIdent[c]&identStart != 0:
		tok = l.scanIdent()
	case c >= utf8.RuneSelf:
		// Decode the full rune: identifier starts proceed, anything else
		// (including invalid UTF-8, which decodes to RuneError without
		// advancing scanIdent) is an error rather than an infinite loop.
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if r != utf8.RuneError && isIdentStart(r) {
			tok = l.scanIdent()
		} else {
			err = l.errorf("unexpected character %q", r)
		}
	case c >= '0' && c <= '9':
		tok, err = l.scanNumber()
	case c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		tok, err = l.scanNumber()
	case c == '"' || c == '\'':
		tok, err = l.scanQuoted(String, c, "unterminated string literal")
	case c == '`':
		tok, err = l.scanQuoted(Template, c, "unterminated template literal")
	case c == '/' && l.regexAllowed():
		tok, err = l.scanRegex()
	default:
		tok = l.scanPunct(c)
		if tok.Literal == "" {
			err = l.errorf("unexpected character %q", c)
		}
	}
	if err != nil {
		return Token{}, err
	}
	l.count++
	if l.maxTokens > 0 && l.count > l.maxTokens {
		return Token{}, fmt.Errorf("%w (limit %d)", ErrTooManyTokens, l.maxTokens)
	}
	tok.Line, tok.Col = startLine, startCol
	tok.NewlineBefore = nl
	l.prevKind, l.prevLit = tok.Kind, tok.Literal
	return tok, nil
}

func (l *Lexer) col() int { return l.pos - l.lineStart + 1 }

func (l *Lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.col()}
}

// regexAllowed reports whether a '/' at the current position begins a regex
// literal rather than a division operator, based on the previous token.
func (l *Lexer) regexAllowed() bool {
	switch l.prevKind {
	case Ident, Number, String, Template, Regex:
		return false
	case Keyword:
		// `this` behaves like a value; every other keyword can precede a regex
		// (e.g. `return /x/`, `typeof /x/`).
		return l.prevLit != "this" && l.prevLit != "null" &&
			l.prevLit != "true" && l.prevLit != "false"
	case Punct:
		switch l.prevLit {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	default:
		return true
	}
}

// advance consumes up to n bytes, counting the line breaks among them.
// Scanners that know their bytes hold no '\n' move pos directly.
func (l *Lexer) advance(n int) {
	end := l.pos + n
	if end > len(l.src) {
		end = len(l.src)
	}
	for ; l.pos < end; l.pos++ {
		if l.src[l.pos] == '\n' {
			l.newline(l.pos)
		}
	}
}

// newline records the line break at offset i.
func (l *Lexer) newline(i int) {
	l.line++
	l.lineStart = i + 1
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v':
			l.pos++
		case c == '\n':
			l.newlineSeen = true
			l.newline(l.pos)
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			if i := strings.IndexByte(l.src[l.pos:], '\n'); i >= 0 {
				l.pos += i
			} else {
				l.pos = len(l.src)
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			// An unterminated comment runs to the end of the input.
			end := len(l.src)
			if i := strings.Index(l.src[l.pos+2:], "*/"); i >= 0 {
				end = l.pos + 2 + i + 2
			}
			if strings.IndexByte(l.src[l.pos:end], '\n') >= 0 {
				l.newlineSeen = true
			}
			l.advance(end - l.pos)
		default:
			return
		}
	}
}

// ASCII character classes for the identifier fast path.
const (
	identStart = 1 << iota
	identPart
)

var asciiIdent = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		if isIdentStart(rune(c)) {
			t[c] |= identStart
		}
		if isIdentPart(rune(c)) {
			t[c] |= identPart
		}
	}
	return t
}()

func (l *Lexer) scanIdent() Token {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if asciiIdent[c]&identPart == 0 {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	kind := Ident
	if IsKeyword(text) {
		kind = Keyword
	}
	return Token{Kind: kind, Literal: text, Raw: text}
}

// skipDigits consumes a run of bytes in class.
func (l *Lexer) skipDigits(class func(byte) bool) {
	for l.pos < len(l.src) && class(l.src[l.pos]) {
		l.pos++
	}
}

func (l *Lexer) scanNumber() (Token, error) {
	start := l.pos
	if l.src[l.pos] == '0' && l.pos+1 < len(l.src) &&
		(l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.pos += 2
		if l.pos >= len(l.src) || !isHexDigit(l.src[l.pos]) {
			return Token{}, l.errorf("malformed hex literal")
		}
		l.skipDigits(isHexDigit)
		raw := l.src[start:l.pos]
		return Token{Kind: Number, Literal: raw, Raw: raw}, nil
	}
	l.skipDigits(isDigit)
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		l.skipDigits(isDigit)
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
			return Token{}, l.errorf("malformed exponent")
		}
		l.skipDigits(isDigit)
	}
	raw := l.src[start:l.pos]
	return Token{Kind: Number, Literal: raw, Raw: raw}, nil
}

// scanQuoted scans a string (quote ' or ") or template (quote `) literal.
// A string may not contain a raw line break; a template may. The decoded
// value of a literal without escapes is a substring of the source; only a
// literal with an escape is copied.
func (l *Lexer) scanQuoted(kind Kind, quote byte, unterminated string) (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	escaped := false
	for {
		if l.pos >= len(l.src) {
			return Token{}, l.errorf("%s", unterminated)
		}
		c := l.src[l.pos]
		switch {
		case c == quote:
			l.pos++
			raw := l.src[start:l.pos]
			lit := raw[1 : len(raw)-1]
			if escaped {
				lit = sb.String()
			}
			return Token{Kind: kind, Literal: lit, Raw: raw}, nil
		case c == '\\':
			if !escaped {
				escaped = true
				sb.WriteString(l.src[start+1 : l.pos])
			}
			l.pos++
			if l.pos >= len(l.src) {
				return Token{}, l.errorf("unterminated escape")
			}
			consumed, err := l.decodeEscape(&sb)
			if err != nil {
				return Token{}, err
			}
			l.advance(consumed)
		case c == '\n':
			if kind == String {
				return Token{}, l.errorf("%s", unterminated)
			}
			l.newline(l.pos)
			fallthrough
		default:
			if escaped {
				sb.WriteByte(c)
			}
			l.pos++
		}
	}
}

// decodeEscape decodes the escape sequence at l.pos (after the backslash)
// into sb and returns how many bytes to consume.
func (l *Lexer) decodeEscape(sb *strings.Builder) (int, error) {
	rest := l.src[l.pos:]
	c := rest[0]
	switch c {
	case 'n':
		sb.WriteByte('\n')
	case 't':
		sb.WriteByte('\t')
	case 'r':
		sb.WriteByte('\r')
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'v':
		sb.WriteByte('\v')
	case '0':
		sb.WriteByte(0)
	case 'x':
		if len(rest) <= 2 {
			return 0, l.errorf("malformed \\x escape")
		}
		hi, lo := hexVal(rest[1]), hexVal(rest[2])
		if hi < 0 || lo < 0 {
			return 0, l.errorf("malformed \\x escape")
		}
		sb.WriteRune(rune(hi*16 + lo))
		return 3, nil
	case 'u':
		return l.decodeUnicodeEscape(sb, rest)
	case '\n':
		// Line continuation: a backslash before any line terminator (LF,
		// CR, CRLF, LS, PS) contributes nothing to the value.
	case '\r':
		if len(rest) > 1 && rest[1] == '\n' {
			return 2, nil
		}
	default:
		if strings.HasPrefix(rest, "\u2028") || strings.HasPrefix(rest, "\u2029") {
			return 3, nil
		}
		// Any other character stands for itself; a non-ASCII lead byte is
		// read as the code point of its value.
		sb.WriteRune(rune(c))
	}
	return 1, nil
}

// decodeUnicodeEscape decodes \uXXXX or \u{X…} (up to U+10FFFF); rest
// starts at the 'u'.
func (l *Lexer) decodeUnicodeEscape(sb *strings.Builder, rest string) (int, error) {
	v, n := 0, 0
	if len(rest) > 1 && rest[1] == '{' {
		for n = 2; n < len(rest) && isHexDigit(rest[n]); n++ {
			if v = v*16 + hexVal(rest[n]); v > unicode.MaxRune {
				return 0, l.errorf("malformed \\u escape")
			}
		}
		if n == 2 || n >= len(rest) || rest[n] != '}' {
			return 0, l.errorf("malformed \\u escape")
		}
		n++
	} else {
		if len(rest) <= 4 {
			return 0, l.errorf("malformed \\u escape")
		}
		for n = 1; n <= 4; n++ {
			d := hexVal(rest[n])
			if d < 0 {
				return 0, l.errorf("malformed \\u escape")
			}
			v = v*16 + d
		}
	}
	sb.WriteRune(rune(v))
	return n, nil
}

func (l *Lexer) scanRegex() (Token, error) {
	start := l.pos
	l.pos++ // opening slash
	inClass := false
	for {
		if l.pos >= len(l.src) || l.src[l.pos] == '\n' {
			return Token{}, l.errorf("unterminated regular expression")
		}
		switch l.src[l.pos] {
		case '\\':
			// The escaped byte may be a line break, which the regex then
			// spans.
			l.advance(2)
			continue
		case '[':
			inClass = true
		case ']':
			inClass = false
		case '/':
			if !inClass {
				l.pos++
				// Flags.
				for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
					l.pos++
				}
				raw := l.src[start:l.pos]
				return Token{Kind: Regex, Literal: raw, Raw: raw}, nil
			}
		}
		l.pos++
	}
}

// punctsByFirst lists, for each leading byte, the punctuators starting with
// it longest-first, so maximal munch applies.
var punctsByFirst = func() (t [utf8.RuneSelf][]string) {
	for _, p := range []string{
		">>>=", "===", "!==", ">>>", "<<=", ">>=", "**=",
		"==", "!=", "<=", ">=", "&&", "||", "++", "--",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "=>", "**",
		"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
		"%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
	} {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// scanPunct scans the punctuator starting with c at l.pos; the token's
// Literal is empty when none does.
func (l *Lexer) scanPunct(c byte) Token {
	if c >= utf8.RuneSelf {
		return Token{Kind: Punct}
	}
	rest := l.src[l.pos:]
	for _, p := range punctsByFirst[c] {
		if strings.HasPrefix(rest, p) {
			l.pos += len(p)
			return Token{Kind: Punct, Literal: p, Raw: p}
		}
	}
	return Token{Kind: Punct}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

func isIdentStart(r rune) bool {
	return r == '$' || r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}
