// Package lexer tokenizes JavaScript source code.
//
// It covers the ES5 grammar plus the ES2015 pieces the corpus and the
// obfuscators emit (let/const, template literals without substitutions).
// The lexer tracks enough context to disambiguate division from regular
// expression literals and records line breaks so the parser can apply
// automatic semicolon insertion.
package lexer

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds, starting at one so the zero value is invalid.
const (
	EOF Kind = iota + 1
	Ident
	Keyword
	Number
	String
	Template
	Regex
	Punct
)

var kindNames = map[Kind]string{
	EOF:      "EOF",
	Ident:    "Ident",
	Keyword:  "Keyword",
	Number:   "Number",
	String:   "String",
	Template: "Template",
	Regex:    "Regex",
	Punct:    "Punct",
}

// String returns the kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is a single lexical unit.
type Token struct {
	Kind Kind
	// Literal is the token's meaning: for Ident/Keyword the name, for
	// String/Template the decoded value, for Number the raw digits, for
	// Punct the operator text, for Regex the pattern plus flags.
	Literal string
	// Raw is the exact source text of the token.
	Raw string
	// Line and Col are the 1-based source position of the token start.
	Line, Col int
	// NewlineBefore records whether a line terminator appeared between the
	// previous token and this one (drives semicolon insertion).
	NewlineBefore bool
}

// String renders the token for diagnostics.
func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Literal, t.Line, t.Col)
}

// IsKeyword reports whether name is a reserved word, one recognized as a
// Keyword token.
func IsKeyword(name string) bool {
	switch name {
	case "break", "case", "catch", "continue",
		"debugger", "default", "delete", "do",
		"else", "finally", "for", "function",
		"if", "in", "instanceof", "new",
		"return", "switch", "this", "throw",
		"try", "typeof", "var", "void",
		"while", "with", "let", "const",
		"null", "true", "false":
		return true
	}
	return false
}
