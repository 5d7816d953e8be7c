package lexer_test

// The lexer as it stood before it streamed: a []Token-returning loop over a
// Next that matched punctuators down a list and copied every string literal
// through a strings.Builder. It is kept only as the oracle that the
// streaming lexer's token stream and errors are checked against
// (oracle_test.go), so it is not edited except to rename it.

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"jsrevealer/internal/js/lexer"
)

// refLexer tokenizes a JavaScript source string.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int

	// newlineSeen is set when a line terminator was consumed since the last
	// emitted token.
	newlineSeen bool
	// prev is the previously emitted token, used to decide whether a '/'
	// starts a regular expression or a division operator.
	prev lexer.Token
	// havePrev records whether prev is valid.
	havePrev bool
}

// newRef returns a reference lexer over src.
func newRef(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

// refTokenizeLimit is the reference lexer.TokenizeLimit: the whole token
// stream, or the first lex error or token-cap error.
func refTokenizeLimit(src string, maxTokens int) ([]lexer.Token, error) {
	lx := newRef(src)
	var out []lexer.Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == lexer.EOF {
			return out, nil
		}
		if maxTokens > 0 && len(out) > maxTokens {
			return nil, fmt.Errorf("%w (limit %d)", lexer.ErrTooManyTokens, maxTokens)
		}
	}
}

// Next returns the next token in the stream.
func (l *refLexer) Next() (lexer.Token, error) {
	l.skipSpaceAndComments()
	startLine, startCol := l.line, l.col
	nl := l.newlineSeen
	l.newlineSeen = false

	if l.pos >= len(l.src) {
		tok := lexer.Token{Kind: lexer.EOF, Line: startLine, Col: startCol, NewlineBefore: nl}
		l.remember(tok)
		return tok, nil
	}

	c := l.src[l.pos]
	var (
		tok lexer.Token
		err error
	)
	switch {
	case refIsIdentStart(rune(c)) && c < utf8.RuneSelf:
		tok = l.scanIdent()
	case c >= utf8.RuneSelf:
		// Decode the full rune: identifier starts proceed, anything else
		// (including invalid UTF-8, which decodes to RuneError without
		// advancing scanIdent) is an error rather than an infinite loop.
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if r != utf8.RuneError && refIsIdentStart(r) {
			tok = l.scanIdent()
		} else {
			err = l.errorf("unexpected character %q", r)
		}
	case c >= '0' && c <= '9':
		tok, err = l.scanNumber()
	case c == '.' && l.pos+1 < len(l.src) && refIsDigit(l.src[l.pos+1]):
		tok, err = l.scanNumber()
	case c == '"' || c == '\'':
		tok, err = l.scanString(c)
	case c == '`':
		tok, err = l.scanTemplate()
	case c == '/':
		if l.regexAllowed() {
			tok, err = l.scanRegex()
		} else {
			tok = l.scanPunct()
		}
	default:
		tok = l.scanPunct()
		if tok.Literal == "" {
			err = l.errorf("unexpected character %q", c)
		}
	}
	if err != nil {
		return lexer.Token{}, err
	}
	tok.Line, tok.Col = startLine, startCol
	tok.NewlineBefore = nl
	l.remember(tok)
	return tok, nil
}

func (l *refLexer) remember(tok lexer.Token) {
	l.prev = tok
	l.havePrev = true
}

func (l *refLexer) errorf(format string, args ...any) error {
	return &lexer.SyntaxError{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.col}
}

// regexAllowed reports whether a '/' at the current position begins a regex
// literal rather than a division operator, based on the previous token.
func (l *refLexer) regexAllowed() bool {
	if !l.havePrev {
		return true
	}
	switch l.prev.Kind {
	case lexer.Ident, lexer.Number, lexer.String, lexer.Template, lexer.Regex:
		return false
	case lexer.Keyword:
		// `this` behaves like a value; every other keyword can precede a regex
		// (e.g. `return /x/`, `typeof /x/`).
		return l.prev.Literal != "this" && l.prev.Literal != "null" &&
			l.prev.Literal != "true" && l.prev.Literal != "false"
	case lexer.Punct:
		switch l.prev.Literal {
		case ")", "]", "}", "++", "--":
			return false
		}
		return true
	default:
		return true
	}
}

func (l *refLexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *refLexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v':
			l.advance(1)
		case c == '\n':
			l.newlineSeen = true
			l.advance(1)
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance(2)
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance(2)
					break
				}
				if l.src[l.pos] == '\n' {
					l.newlineSeen = true
				}
				l.advance(1)
			}
		default:
			return
		}
	}
}

func (l *refLexer) scanIdent() lexer.Token {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !refIsIdentPart(r) {
			break
		}
		l.advance(size)
	}
	text := l.src[start:l.pos]
	kind := lexer.Ident
	if lexer.IsKeyword(text) {
		kind = lexer.Keyword
	}
	return lexer.Token{Kind: kind, Literal: text, Raw: text}
}

func (l *refLexer) scanNumber() (lexer.Token, error) {
	start := l.pos
	if l.src[l.pos] == '0' && l.pos+1 < len(l.src) &&
		(l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.advance(2)
		if l.pos >= len(l.src) || !refIsHexDigit(l.src[l.pos]) {
			return lexer.Token{}, l.errorf("malformed hex literal")
		}
		for l.pos < len(l.src) && refIsHexDigit(l.src[l.pos]) {
			l.advance(1)
		}
		raw := l.src[start:l.pos]
		return lexer.Token{Kind: lexer.Number, Literal: raw, Raw: raw}, nil
	}
	for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
		l.advance(1)
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.advance(1)
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.advance(1)
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		l.advance(1)
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.advance(1)
		}
		if l.pos >= len(l.src) || !refIsDigit(l.src[l.pos]) {
			return lexer.Token{}, l.errorf("malformed exponent")
		}
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.advance(1)
		}
	}
	raw := l.src[start:l.pos]
	return lexer.Token{Kind: lexer.Number, Literal: raw, Raw: raw}, nil
}

func (l *refLexer) scanString(quote byte) (lexer.Token, error) {
	start := l.pos
	l.advance(1) // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return lexer.Token{}, l.errorf("unterminated string literal")
		}
		c := l.src[l.pos]
		switch c {
		case quote:
			l.advance(1)
			raw := l.src[start:l.pos]
			return lexer.Token{Kind: lexer.String, Literal: sb.String(), Raw: raw}, nil
		case '\\':
			l.advance(1)
			if l.pos >= len(l.src) {
				return lexer.Token{}, l.errorf("unterminated escape")
			}
			decoded, consumed, err := l.decodeEscape()
			if err != nil {
				return lexer.Token{}, err
			}
			sb.WriteString(decoded)
			l.advance(consumed)
		case '\n':
			return lexer.Token{}, l.errorf("unterminated string literal")
		default:
			sb.WriteByte(c)
			l.advance(1)
		}
	}
}

// decodeEscape decodes the escape sequence at l.pos (after the backslash) and
// returns the decoded text plus how many bytes to consume.
func (l *refLexer) decodeEscape() (string, int, error) {
	c := l.src[l.pos]
	switch c {
	case 'n':
		return "\n", 1, nil
	case 't':
		return "\t", 1, nil
	case 'r':
		return "\r", 1, nil
	case 'b':
		return "\b", 1, nil
	case 'f':
		return "\f", 1, nil
	case 'v':
		return "\v", 1, nil
	case '0':
		return "\x00", 1, nil
	case 'x':
		if l.pos+2 >= len(l.src) {
			return "", 0, l.errorf("malformed \\x escape")
		}
		hi, lo := refHexVal(l.src[l.pos+1]), refHexVal(l.src[l.pos+2])
		if hi < 0 || lo < 0 {
			return "", 0, l.errorf("malformed \\x escape")
		}
		return string(rune(hi*16 + lo)), 3, nil
	case 'u':
		if l.pos+4 >= len(l.src) {
			return "", 0, l.errorf("malformed \\u escape")
		}
		v := 0
		for i := 1; i <= 4; i++ {
			d := refHexVal(l.src[l.pos+i])
			if d < 0 {
				return "", 0, l.errorf("malformed \\u escape")
			}
			v = v*16 + d
		}
		return string(rune(v)), 5, nil
	case '\n':
		// Line continuation.
		return "", 1, nil
	default:
		return string(c), 1, nil
	}
}

func (l *refLexer) scanTemplate() (lexer.Token, error) {
	start := l.pos
	l.advance(1) // backtick
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return lexer.Token{}, l.errorf("unterminated template literal")
		}
		c := l.src[l.pos]
		switch c {
		case '`':
			l.advance(1)
			raw := l.src[start:l.pos]
			return lexer.Token{Kind: lexer.Template, Literal: sb.String(), Raw: raw}, nil
		case '\\':
			l.advance(1)
			if l.pos >= len(l.src) {
				return lexer.Token{}, l.errorf("unterminated escape")
			}
			decoded, consumed, err := l.decodeEscape()
			if err != nil {
				return lexer.Token{}, err
			}
			sb.WriteString(decoded)
			l.advance(consumed)
		default:
			sb.WriteByte(c)
			l.advance(1)
		}
	}
}

func (l *refLexer) scanRegex() (lexer.Token, error) {
	start := l.pos
	l.advance(1) // opening slash
	inClass := false
	for {
		if l.pos >= len(l.src) || l.src[l.pos] == '\n' {
			return lexer.Token{}, l.errorf("unterminated regular expression")
		}
		c := l.src[l.pos]
		switch c {
		case '\\':
			l.advance(2)
			continue
		case '[':
			inClass = true
		case ']':
			inClass = false
		case '/':
			if !inClass {
				l.advance(1)
				// Flags.
				for l.pos < len(l.src) && refIsIdentPart(rune(l.src[l.pos])) {
					l.advance(1)
				}
				raw := l.src[start:l.pos]
				return lexer.Token{Kind: lexer.Regex, Literal: raw, Raw: raw}, nil
			}
		}
		l.advance(1)
	}
}

// refPuncts lists punctuators longest-first so maximal munch applies.
var refPuncts = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=", "**=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "=>", "**",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
}

func (l *refLexer) scanPunct() lexer.Token {
	rest := l.src[l.pos:]
	for _, p := range refPuncts {
		if strings.HasPrefix(rest, p) {
			l.advance(len(p))
			return lexer.Token{Kind: lexer.Punct, Literal: p, Raw: p}
		}
	}
	return lexer.Token{Kind: lexer.Punct}
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func refIsHexDigit(c byte) bool {
	return refIsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func refHexVal(c byte) int {
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

func refIsIdentStart(r rune) bool {
	return r == '$' || r == '_' || unicode.IsLetter(r)
}

func refIsIdentPart(r rune) bool {
	return refIsIdentStart(r) || unicode.IsDigit(r)
}
