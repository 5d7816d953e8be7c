// Package parser builds an ESTree-shaped AST from JavaScript source.
//
// It is a hand-written recursive-descent parser standing in for Esprima,
// which the JSRevealer paper uses. The grammar covered is ES5 plus
// let/const and simple template literals — everything the corpus generators,
// obfuscators, and realistic web scripts in the evaluation emit.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/lexer"
)

// DefaultMaxDepth is the recursion-depth budget applied when Limits.MaxDepth
// is unset. Pathological inputs (e.g. tens of thousands of nested
// parentheses) otherwise overflow the goroutine stack; ~2000 frames is far
// beyond anything real code or the evaluation obfuscators produce.
const DefaultMaxDepth = 2000

// ErrTooDeep is wrapped by parse failures caused by exceeding the recursion
// depth limit; callers distinguish it from ordinary syntax errors with
// errors.Is.
var ErrTooDeep = errors.New("parser: recursion depth limit exceeded")

// ErrCancelled is wrapped by parse failures caused by Limits.Cancel firing,
// letting callers enforce deadlines on hostile inputs cooperatively.
var ErrCancelled = errors.New("parser: parse cancelled")

// Limits bounds the resources a single parse may consume. The zero value
// applies DefaultMaxDepth with no token cap and no cancellation.
type Limits struct {
	// MaxDepth caps recursive-descent nesting; <= 0 means DefaultMaxDepth.
	MaxDepth int
	// MaxTokens caps the token count (see lexer.NewLimit); <= 0
	// disables the cap.
	MaxTokens int
	// Cancel, when non-nil, aborts the parse with ErrCancelled shortly
	// after the channel is closed. Pass ctx.Done() to honour deadlines.
	Cancel <-chan struct{}
}

// ParseError describes a parse failure with its source position.
type ParseError struct {
	Msg  string
	Line int
	Col  int
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses src into a Program with default limits.
func Parse(src string) (*ast.Program, error) {
	return ParseWithLimits(src, Limits{})
}

// ParseWithLimits parses src into a Program under the given resource limits.
func ParseWithLimits(src string, lim Limits) (*ast.Program, error) {
	prog, _, err := ParseTimed(src, lim)
	return prog, err
}

// Timing breaks one parse into its two phases, the substrate for the
// observability layer's per-stage attribution (lexing and parsing would
// otherwise be indistinguishable from the outside).
type Timing struct {
	// Lex is the tokenization time: the sum of the parser's token-window
	// fills, including a failed one and the drain after a parse error.
	Lex time.Duration
	// Parse is the rest of the parse: recursive descent over the tokens.
	Parse time.Duration
}

// window is how many tokens the parser holds at once. The grammar needs
// only the current token and one of lookahead and never backtracks, so
// the lexer runs one window ahead of the parser instead of materializing
// the whole token stream.
const window = 256

// ParseTimed is ParseWithLimits with a per-phase timing breakdown. The
// timing is valid even when err is non-nil (the failing phase's duration is
// still reported).
//
// Errors take the precedence they would if the whole input were lexed
// before parsing: a lex error or Limits.MaxTokens overrun anywhere in the
// input wins over a parse error, so after a parse error the rest of the
// input is lexed (drained) to look for one. Cancellation returns at once;
// it is polled by the parser and on every window fill, so lexing is under
// the deadline too.
func ParseTimed(src string, lim Limits) (*ast.Program, Timing, error) {
	return parseTimed(src, lim, window)
}

// parseTimed is ParseTimed with a window of n >= 2 tokens.
func parseTimed(src string, lim Limits, n int) (*ast.Program, Timing, error) {
	if lim.MaxDepth <= 0 {
		lim.MaxDepth = DefaultMaxDepth
	}
	t0 := time.Now()
	p := &parser{
		lx:       lexer.NewLimit(src, lim.MaxTokens),
		toks:     make([]lexer.Token, 0, min(n, len(src)+2)),
		maxDepth: lim.MaxDepth,
		cancel:   lim.Cancel,
	}
	p.fill()
	prog, err := p.parseProgram()
	switch {
	case p.lexErr != nil:
		err = p.lexErr
	case err != nil && !errors.Is(err, ErrCancelled):
		for !p.lexDone {
			p.pos = len(p.toks) - 1
			p.fill()
		}
		if p.lexErr != nil {
			err = p.lexErr
		}
	}
	tm := Timing{Lex: p.lexTime, Parse: time.Since(t0) - p.lexTime}
	if err != nil {
		return nil, tm, err
	}
	return prog, tm, nil
}

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.atEOF() {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	return prog, nil
}

type parser struct {
	lx *lexer.Lexer
	// toks is the token window: toks[pos] is the current token. Once the
	// lexer is done, the window ends with the EOF token.
	toks []lexer.Token
	pos  int
	// lexDone is set once the EOF token is in the window or lexing failed;
	// lexErr is the failure (a lex error, the token cap, or ErrCancelled),
	// after which the window ends with a stand-in EOF so the parser
	// unwinds. lexTime sums the window fills.
	lexDone bool
	lexErr  error
	lexTime time.Duration

	// depth tracks recursive-descent nesting against maxDepth.
	depth    int
	maxDepth int
	// steps counts enter calls so cancellation is polled cheaply.
	steps  int
	cancel <-chan struct{}
}

// fill slides the current token to the front of the window and lexes the
// rest of the window full (or up to EOF).
func (p *parser) fill() {
	if p.lexDone {
		return
	}
	t0 := time.Now()
	p.toks = p.toks[:copy(p.toks[:cap(p.toks)], p.toks[p.pos:])]
	p.pos = 0
	select {
	case <-p.cancel:
		p.stopLexing(ErrCancelled)
	default:
		for len(p.toks) < cap(p.toks) {
			tok, err := p.lx.Next()
			if err != nil {
				p.stopLexing(err)
				break
			}
			p.toks = append(p.toks, tok)
			if tok.Kind == lexer.EOF {
				p.lexDone = true
				break
			}
		}
	}
	p.lexTime += time.Since(t0)
}

func (p *parser) stopLexing(err error) {
	p.lexErr, p.lexDone = err, true
	p.toks = append(p.toks, lexer.Token{Kind: lexer.EOF})
}

// enter charges one recursion frame; it fails once the depth budget is
// exhausted or the parse has been cancelled. Every recursive production
// (statements, assignments, unary chains, new chains) calls it, so nesting
// of any shape is bounded.
func (p *parser) enter() error {
	p.depth++
	if p.depth > p.maxDepth {
		return fmt.Errorf("%w (limit %d)", ErrTooDeep, p.maxDepth)
	}
	p.steps++
	if p.cancel != nil && p.steps&255 == 0 {
		select {
		case <-p.cancel:
			return ErrCancelled
		default:
		}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *parser) atEOF() bool      { return p.cur().Kind == lexer.EOF }

// advance consumes the current token; at EOF it stays put.
func (p *parser) advance() lexer.Token {
	t := p.toks[p.pos]
	if p.pos == len(p.toks)-1 {
		p.fill()
	}
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

// peek returns the token after the current one (EOF at the end).
func (p *parser) peek() lexer.Token {
	if p.pos == len(p.toks)-1 {
		p.fill()
	}
	return p.toks[min(p.pos+1, len(p.toks)-1)]
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

// isPunct reports whether the current token is the given punctuator.
func (p *parser) isPunct(lit string) bool {
	t := p.cur()
	return t.Kind == lexer.Punct && t.Literal == lit
}

// isKeyword reports whether the current token is the given keyword.
func (p *parser) isKeyword(lit string) bool {
	t := p.cur()
	return t.Kind == lexer.Keyword && t.Literal == lit
}

// expectPunct consumes the given punctuator or fails.
func (p *parser) expectPunct(lit string) error {
	if !p.isPunct(lit) {
		return p.errorf("expected %q, found %s", lit, p.cur())
	}
	p.advance()
	return nil
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(lit string) error {
	if !p.isKeyword(lit) {
		return p.errorf("expected keyword %q, found %s", lit, p.cur())
	}
	p.advance()
	return nil
}

// consumeSemicolon applies automatic semicolon insertion: an explicit ';' is
// eaten; otherwise a '}' or EOF or a preceding line break satisfies ASI.
func (p *parser) consumeSemicolon() error {
	if p.isPunct(";") {
		p.advance()
		return nil
	}
	if p.isPunct("}") || p.atEOF() || p.cur().NewlineBefore {
		return nil
	}
	return p.errorf("expected semicolon, found %s", p.cur())
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) parseStatement() (ast.Statement, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == lexer.Punct && t.Literal == "{":
		return p.parseBlock()
	case t.Kind == lexer.Punct && t.Literal == ";":
		p.advance()
		return &ast.EmptyStatement{}, nil
	case t.Kind == lexer.Keyword:
		switch t.Literal {
		case "var", "let", "const":
			return p.parseVariableDeclaration()
		case "function":
			return p.parseFunctionDeclaration()
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDoWhile()
		case "return":
			return p.parseReturn()
		case "break":
			return p.parseBreakContinue(true)
		case "continue":
			return p.parseBreakContinue(false)
		case "switch":
			return p.parseSwitch()
		case "throw":
			return p.parseThrow()
		case "try":
			return p.parseTry()
		case "with":
			return p.parseWith()
		case "debugger":
			p.advance()
			if err := p.consumeSemicolon(); err != nil {
				return nil, err
			}
			return &ast.DebuggerStatement{}, nil
		}
	case t.Kind == lexer.Ident && p.peek().Kind == lexer.Punct && p.peek().Literal == ":":
		// Labeled statement.
		label := &ast.Identifier{Name: p.advance().Literal}
		p.advance() // ':'
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ast.LabeledStatement{Label: label, Body: body}, nil
	}
	// Expression statement.
	expr, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return &ast.ExpressionStatement{Expression: expr}, nil
}

func (p *parser) parseBlock() (*ast.BlockStatement, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &ast.BlockStatement{}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		blk.Body = append(blk.Body, stmt)
	}
	p.advance() // '}'
	return blk, nil
}

func (p *parser) parseVariableDeclaration() (*ast.VariableDeclaration, error) {
	decl, err := p.parseVariableDeclarationNoSemi()
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *parser) parseVariableDeclarationNoSemi() (*ast.VariableDeclaration, error) {
	kind := p.advance().Literal // var/let/const
	decl := &ast.VariableDeclaration{Kind: kind}
	for {
		if p.cur().Kind != lexer.Ident {
			return nil, p.errorf("expected identifier in %s declaration, found %s", kind, p.cur())
		}
		id := &ast.Identifier{Name: p.advance().Literal}
		d := &ast.VariableDeclarator{ID: id}
		if p.isPunct("=") {
			p.advance()
			init, err := p.parseAssignment()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		decl.Declarations = append(decl.Declarations, d)
		if !p.isPunct(",") {
			break
		}
		p.advance()
	}
	return decl, nil
}

func (p *parser) parseFunctionDeclaration() (*ast.FunctionDeclaration, error) {
	p.advance() // function
	if p.cur().Kind != lexer.Ident {
		return nil, p.errorf("expected function name, found %s", p.cur())
	}
	id := &ast.Identifier{Name: p.advance().Literal}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ast.FunctionDeclaration{ID: id, Params: params, Body: body}, nil
}

func (p *parser) parseParams() ([]*ast.Identifier, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []*ast.Identifier
	for !p.isPunct(")") {
		if p.cur().Kind != lexer.Ident {
			return nil, p.errorf("expected parameter name, found %s", p.cur())
		}
		params = append(params, &ast.Identifier{Name: p.advance().Literal})
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance() // ')'
	return params, nil
}

func (p *parser) parseIf() (*ast.IfStatement, error) {
	p.advance() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	cons, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt := &ast.IfStatement{Test: test, Consequent: cons}
	if p.isKeyword("else") {
		p.advance()
		alt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmt.Alternate = alt
	}
	return stmt, nil
}

func (p *parser) parseFor() (ast.Statement, error) {
	p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	var initNode ast.Node
	switch {
	case p.isPunct(";"):
		// no init
	case p.isKeyword("var") || p.isKeyword("let") || p.isKeyword("const"):
		decl, err := p.parseVariableDeclarationNoSemi()
		if err != nil {
			return nil, err
		}
		if p.isKeyword("in") {
			p.advance()
			return p.finishForIn(decl)
		}
		initNode = decl
	default:
		expr, err := p.parseExpressionNoIn()
		if err != nil {
			return nil, err
		}
		if p.isKeyword("in") {
			p.advance()
			return p.finishForIn(expr)
		}
		initNode = expr
	}

	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	stmt := &ast.ForStatement{Init: initNode}
	if !p.isPunct(";") {
		test, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.Test = test
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		update, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.Update = update
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	return stmt, nil
}

func (p *parser) finishForIn(left ast.Node) (ast.Statement, error) {
	right, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ast.ForInStatement{Left: left, Right: right, Body: body}, nil
}

func (p *parser) parseWhile() (*ast.WhileStatement, error) {
	p.advance() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStatement{Test: test, Body: body}, nil
}

func (p *parser) parseDoWhile() (*ast.DoWhileStatement, error) {
	p.advance() // do
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("while"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	test, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.isPunct(";") {
		p.advance()
	}
	return &ast.DoWhileStatement{Body: body, Test: test}, nil
}

func (p *parser) parseReturn() (*ast.ReturnStatement, error) {
	p.advance() // return
	stmt := &ast.ReturnStatement{}
	// ASI: `return` followed by a newline returns undefined.
	if !p.isPunct(";") && !p.isPunct("}") && !p.atEOF() && !p.cur().NewlineBefore {
		arg, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		stmt.Argument = arg
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseBreakContinue(isBreak bool) (ast.Statement, error) {
	p.advance() // break/continue
	var label *ast.Identifier
	if p.cur().Kind == lexer.Ident && !p.cur().NewlineBefore {
		label = &ast.Identifier{Name: p.advance().Literal}
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	if isBreak {
		return &ast.BreakStatement{Label: label}, nil
	}
	return &ast.ContinueStatement{Label: label}, nil
}

func (p *parser) parseSwitch() (*ast.SwitchStatement, error) {
	p.advance() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	disc, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	stmt := &ast.SwitchStatement{Discriminant: disc}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated switch")
		}
		sc := &ast.SwitchCase{}
		if p.isKeyword("case") {
			p.advance()
			test, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			sc.Test = test
		} else if p.isKeyword("default") {
			p.advance()
		} else {
			return nil, p.errorf("expected case or default, found %s", p.cur())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.isKeyword("case") && !p.isKeyword("default") && !p.isPunct("}") {
			if p.atEOF() {
				return nil, p.errorf("unterminated switch case")
			}
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			sc.Consequent = append(sc.Consequent, s)
		}
		stmt.Cases = append(stmt.Cases, sc)
	}
	p.advance() // '}'
	return stmt, nil
}

func (p *parser) parseThrow() (*ast.ThrowStatement, error) {
	p.advance() // throw
	arg, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.consumeSemicolon(); err != nil {
		return nil, err
	}
	return &ast.ThrowStatement{Argument: arg}, nil
}

func (p *parser) parseTry() (*ast.TryStatement, error) {
	p.advance() // try
	block, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &ast.TryStatement{Block: block}
	if p.isKeyword("catch") {
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().Kind != lexer.Ident {
			return nil, p.errorf("expected catch parameter, found %s", p.cur())
		}
		param := &ast.Identifier{Name: p.advance().Literal}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt.Handler = &ast.CatchClause{Param: param, Body: body}
	}
	if p.isKeyword("finally") {
		p.advance()
		fin, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		stmt.Finalizer = fin
	}
	if stmt.Handler == nil && stmt.Finalizer == nil {
		return nil, p.errorf("try requires catch or finally")
	}
	return stmt, nil
}

func (p *parser) parseWith() (*ast.WithStatement, error) {
	p.advance() // with
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	obj, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ast.WithStatement{Object: obj, Body: body}, nil
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseExpression parses a full (possibly comma-separated) expression.
func (p *parser) parseExpression() (ast.Expression, error) {
	return p.parseExpressionImpl(true)
}

// parseExpressionNoIn parses an expression treating `in` as a terminator,
// for use in for-statement heads.
func (p *parser) parseExpressionNoIn() (ast.Expression, error) {
	return p.parseExpressionImpl(false)
}

func (p *parser) parseExpressionImpl(allowIn bool) (ast.Expression, error) {
	first, err := p.parseAssignmentIn(allowIn)
	if err != nil {
		return nil, err
	}
	if !p.isPunct(",") {
		return first, nil
	}
	seq := &ast.SequenceExpression{Expressions: []ast.Expression{first}}
	for p.isPunct(",") {
		p.advance()
		next, err := p.parseAssignmentIn(allowIn)
		if err != nil {
			return nil, err
		}
		seq.Expressions = append(seq.Expressions, next)
	}
	return seq, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"<<=": true, ">>=": true, ">>>=": true, "&=": true, "|=": true, "^=": true,
}

func (p *parser) parseAssignment() (ast.Expression, error) {
	return p.parseAssignmentIn(true)
}

func (p *parser) parseAssignmentIn(allowIn bool) (ast.Expression, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseConditional(allowIn)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == lexer.Punct && assignOps[t.Literal] {
		switch left.(type) {
		case *ast.Identifier, *ast.MemberExpression:
			// valid assignment targets
		default:
			return nil, p.errorf("invalid assignment target %s", left.Type())
		}
		op := p.advance().Literal
		right, err := p.parseAssignmentIn(allowIn)
		if err != nil {
			return nil, err
		}
		return &ast.AssignmentExpression{Operator: op, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *parser) parseConditional(allowIn bool) (ast.Expression, error) {
	test, err := p.parseBinary(0, allowIn)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return test, nil
	}
	p.advance()
	cons, err := p.parseAssignmentIn(true)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	alt, err := p.parseAssignmentIn(allowIn)
	if err != nil {
		return nil, err
	}
	return &ast.ConditionalExpression{Test: test, Consequent: cons, Alternate: alt}, nil
}

// binaryPrec maps binary operators to their precedence; higher binds tighter.
var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7, "in": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binaryOp(allowIn bool) (string, int, bool) {
	t := p.cur()
	var op string
	switch t.Kind {
	case lexer.Punct:
		op = t.Literal
	case lexer.Keyword:
		if t.Literal == "instanceof" || (t.Literal == "in" && allowIn) {
			op = t.Literal
		}
	}
	prec, ok := binaryPrec[op]
	return op, prec, ok && op != ""
}

func (p *parser) parseBinary(minPrec int, allowIn bool) (ast.Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec, ok := p.binaryOp(allowIn)
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(prec+1, allowIn)
		if err != nil {
			return nil, err
		}
		if op == "&&" || op == "||" {
			left = &ast.LogicalExpression{Operator: op, Left: left, Right: right}
		} else {
			left = &ast.BinaryExpression{Operator: op, Left: left, Right: right}
		}
	}
}

var unaryOps = map[string]bool{
	"+": true, "-": true, "!": true, "~": true,
	"typeof": true, "void": true, "delete": true,
}

func (p *parser) parseUnary() (ast.Expression, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if (t.Kind == lexer.Punct || t.Kind == lexer.Keyword) && unaryOps[t.Literal] {
		op := p.advance().Literal
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpression{Operator: op, Argument: arg}, nil
	}
	if t.Kind == lexer.Punct && (t.Literal == "++" || t.Literal == "--") {
		op := p.advance().Literal
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.UpdateExpression{Operator: op, Argument: arg, Prefix: true}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (ast.Expression, error) {
	expr, err := p.parseCallMember()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == lexer.Punct && (t.Literal == "++" || t.Literal == "--") && !t.NewlineBefore {
		op := p.advance().Literal
		return &ast.UpdateExpression{Operator: op, Argument: expr, Prefix: false}, nil
	}
	return expr, nil
}

// parseCallMember parses new expressions, member access chains, and calls.
func (p *parser) parseCallMember() (ast.Expression, error) {
	var expr ast.Expression
	var err error
	if p.isKeyword("new") {
		expr, err = p.parseNew()
	} else {
		expr, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	return p.parseCallMemberTail(expr)
}

func (p *parser) parseCallMemberTail(expr ast.Expression) (ast.Expression, error) {
	for {
		switch {
		case p.isPunct("."):
			p.advance()
			t := p.cur()
			if t.Kind != lexer.Ident && t.Kind != lexer.Keyword {
				return nil, p.errorf("expected property name, found %s", t)
			}
			p.advance()
			expr = &ast.MemberExpression{
				Object:   expr,
				Property: &ast.Identifier{Name: t.Literal},
			}
		case p.isPunct("["):
			p.advance()
			prop, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			expr = &ast.MemberExpression{Object: expr, Property: prop, Computed: true}
		case p.isPunct("("):
			args, err := p.parseArguments()
			if err != nil {
				return nil, err
			}
			expr = &ast.CallExpression{Callee: expr, Arguments: args}
		default:
			return expr, nil
		}
	}
}

func (p *parser) parseNew() (ast.Expression, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	p.advance() // new
	var callee ast.Expression
	var err error
	if p.isKeyword("new") {
		callee, err = p.parseNew()
	} else {
		callee, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	// Member accesses bind tighter than the new-call arguments.
	for p.isPunct(".") || p.isPunct("[") {
		if p.isPunct(".") {
			p.advance()
			t := p.cur()
			if t.Kind != lexer.Ident && t.Kind != lexer.Keyword {
				return nil, p.errorf("expected property name, found %s", t)
			}
			p.advance()
			callee = &ast.MemberExpression{Object: callee, Property: &ast.Identifier{Name: t.Literal}}
		} else {
			p.advance()
			prop, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			callee = &ast.MemberExpression{Object: callee, Property: prop, Computed: true}
		}
	}
	ne := &ast.NewExpression{Callee: callee}
	if p.isPunct("(") {
		args, err := p.parseArguments()
		if err != nil {
			return nil, err
		}
		ne.Arguments = args
	}
	return ne, nil
}

func (p *parser) parseArguments() ([]ast.Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []ast.Expression
	for !p.isPunct(")") {
		if p.atEOF() {
			return nil, p.errorf("unterminated argument list")
		}
		arg, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance() // ')'
	return args, nil
}

func (p *parser) parsePrimary() (ast.Expression, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Ident:
		p.advance()
		return &ast.Identifier{Name: t.Literal}, nil
	case lexer.Number:
		p.advance()
		val, err := parseNumericLiteral(t.Literal)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.Literal, err)
		}
		return &ast.Literal{Kind: ast.LiteralNumber, NumVal: val, Raw: t.Raw}, nil
	case lexer.String:
		p.advance()
		return &ast.Literal{Kind: ast.LiteralString, StrVal: t.Literal, Raw: t.Raw}, nil
	case lexer.Template:
		p.advance()
		return &ast.Literal{Kind: ast.LiteralString, StrVal: t.Literal, Raw: t.Raw}, nil
	case lexer.Regex:
		p.advance()
		return &ast.Literal{Kind: ast.LiteralRegExp, StrVal: t.Literal, Raw: t.Raw}, nil
	case lexer.Keyword:
		switch t.Literal {
		case "this":
			p.advance()
			return &ast.ThisExpression{}, nil
		case "true", "false":
			p.advance()
			return &ast.Literal{Kind: ast.LiteralBool, BoolVal: t.Literal == "true", Raw: t.Raw}, nil
		case "null":
			p.advance()
			return &ast.Literal{Kind: ast.LiteralNull, Raw: t.Raw}, nil
		case "function":
			return p.parseFunctionExpression()
		case "new":
			return p.parseNew()
		}
	case lexer.Punct:
		switch t.Literal {
		case "(":
			p.advance()
			expr, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return expr, nil
		case "[":
			return p.parseArrayLiteral()
		case "{":
			return p.parseObjectLiteral()
		}
	}
	return nil, p.errorf("unexpected token %s", t)
}

func (p *parser) parseFunctionExpression() (*ast.FunctionExpression, error) {
	p.advance() // function
	fe := &ast.FunctionExpression{}
	if p.cur().Kind == lexer.Ident {
		fe.ID = &ast.Identifier{Name: p.advance().Literal}
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	fe.Params = params
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fe.Body = body
	return fe, nil
}

func (p *parser) parseArrayLiteral() (*ast.ArrayExpression, error) {
	p.advance() // '['
	arr := &ast.ArrayExpression{}
	for !p.isPunct("]") {
		if p.atEOF() {
			return nil, p.errorf("unterminated array literal")
		}
		if p.isPunct(",") {
			// Elision hole.
			arr.Elements = append(arr.Elements, nil)
			p.advance()
			continue
		}
		el, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		arr.Elements = append(arr.Elements, el)
		if p.isPunct(",") {
			p.advance()
		}
	}
	p.advance() // ']'
	return arr, nil
}

func (p *parser) parseObjectLiteral() (*ast.ObjectExpression, error) {
	p.advance() // '{'
	obj := &ast.ObjectExpression{}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated object literal")
		}
		prop, err := p.parseProperty()
		if err != nil {
			return nil, err
		}
		obj.Properties = append(obj.Properties, prop)
		if p.isPunct(",") {
			p.advance()
		} else if !p.isPunct("}") {
			return nil, p.errorf("expected ',' or '}' in object literal, found %s", p.cur())
		}
	}
	p.advance() // '}'
	return obj, nil
}

func (p *parser) parseProperty() (*ast.Property, error) {
	t := p.cur()
	// get/set accessors: `get name() {...}`.
	if t.Kind == lexer.Ident && (t.Literal == "get" || t.Literal == "set") {
		next := p.peek()
		if next.Kind == lexer.Ident || next.Kind == lexer.Keyword ||
			next.Kind == lexer.String || next.Kind == lexer.Number {
			kind := ast.PropertyGet
			if t.Literal == "set" {
				kind = ast.PropertySet
			}
			p.advance() // get/set
			key, err := p.parsePropertyKey()
			if err != nil {
				return nil, err
			}
			params, err := p.parseParams()
			if err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &ast.Property{
				Kind:  kind,
				Key:   key,
				Value: &ast.FunctionExpression{Params: params, Body: body},
			}, nil
		}
	}
	key, err := p.parsePropertyKey()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	val, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	return &ast.Property{Kind: ast.PropertyInit, Key: key, Value: val}, nil
}

func (p *parser) parsePropertyKey() (ast.Expression, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Ident, lexer.Keyword:
		p.advance()
		return &ast.Identifier{Name: t.Literal}, nil
	case lexer.String:
		p.advance()
		return &ast.Literal{Kind: ast.LiteralString, StrVal: t.Literal, Raw: t.Raw}, nil
	case lexer.Number:
		p.advance()
		val, err := parseNumericLiteral(t.Literal)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.Literal, err)
		}
		return &ast.Literal{Kind: ast.LiteralNumber, NumVal: val, Raw: t.Raw}, nil
	default:
		return nil, p.errorf("invalid property key %s", t)
	}
}

// parseNumericLiteral converts a JS numeric literal (decimal or 0x hex) to a
// float64.
func parseNumericLiteral(s string) (float64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		return float64(v), err
	}
	return strconv.ParseFloat(s, 64)
}
