// The engine's side of the declarative rules layer (internal/rules). Rules
// run in two stages: a cheap deny-only text pass before triage (front), and
// the full pass — lists, signatures, path predicates — after
// deobfuscation, just before the model (prepareSource).
// Everything here is nil-safe on a disabled rules layer: with Config.Rules
// unset the engine's verdicts are bit-identical to a rules-free build.
package scan

import (
	"context"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/pathctx"
	"jsrevealer/internal/rules"
)

// ProgramClassifier is optionally implemented by a BatchClassifier whose
// front half can start from a program the engine already parsed
// (core.Detector does). PrepareBatch(src) must equal
// PreparePaths(ExtractPaths(ParseProgram(src))). When a rule set inspects
// path contexts, the engine parses the classifier's view once through
// ParseProgram and hands that program to both the rules layer and the
// model; when PathOptions equals rules.PathOptions(), the options path
// predicates match against, the path contexts are extracted once as well.
type ProgramClassifier interface {
	ParseProgram(ctx context.Context, src string, lim parser.Limits) (*ast.Program, error)
	ExtractPaths(ctx context.Context, prog *ast.Program) []pathctx.Path
	PreparePaths(paths []pathctx.Path) any
	PathOptions() pathctx.Options
}

// currentRules reads the live rule set once; nil means rules are disabled
// (no provider, or a provider with nothing loaded yet).
func (e *Engine) currentRules() *rules.Set {
	if e.cfg.Rules == nil {
		return nil
	}
	return e.cfg.Rules.Current()
}

// sharedParse is the one parse of a script's classifier view that the
// rules layer and the model share: the program, or the taxonomy error the
// parse failed with, plus the model's path contexts, extracted at most once.
type sharedParse struct {
	pc    ProgramClassifier
	prog  *ast.Program
	err   error
	paths []pathctx.Path
	done  bool
}

// parseShared parses src once for rules and model, with the isolation,
// deadline, limits, and error taxonomy of the classifier's own prepare.
func (e *Engine) parseShared(ctx context.Context, pc ProgramClassifier, src string) *sharedParse {
	p, err := e.isolated(ctx, func() (any, error) { return pc.ParseProgram(ctx, src, e.limits()) })
	sh := &sharedParse{pc: pc, err: err}
	sh.prog, _ = p.(*ast.Program)
	return sh
}

// modelPaths extracts the program's path contexts with the model's options
// on first use, under the span ctx carries: the rules pass's when a path
// predicate needs them first, the model's "detect" otherwise. A panicking
// extraction leaves nothing cached, so the isolated prepare that calls it
// next reports ErrInternal.
func (sh *sharedParse) modelPaths(ctx context.Context) []pathctx.Path {
	if !sh.done {
		sh.paths = sh.pc.ExtractPaths(ctx, sh.prog)
		sh.done = true
	}
	return sh.paths
}

// evalRules runs the full rules pass over one script with the same panic
// isolation the classifier gets: a rule evaluation must never take down a
// scan, so a panic yields the zero verdict (no action, no hits) and the
// model decides alone. sh, when non-nil, is the program shared with the
// model; otherwise the normalized source is parsed here only when a loaded
// rule actually inspects path contexts. A parse failure is not an error —
// text rules still apply, path predicates simply cannot match.
func (e *Engine) evalRules(ctx context.Context, set *rules.Set, sh *sharedParse, name, raw, normalized string) (v rules.Verdict) {
	if set == nil {
		return rules.Verdict{}
	}
	ctx, sp := obs.StartSpan(ctx, "scan.rules")
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			v = rules.Verdict{}
		}
	}()
	in := rules.Input{Name: name, Raw: raw, Normalized: normalized}
	switch {
	case sh != nil:
		in.Prog = sh.prog
		if sh.prog != nil && sh.pc.PathOptions() == rules.PathOptions() {
			in.Paths = func() []pathctx.Path { return sh.modelPaths(ctx) }
		}
	case set.NeedsAST():
		lim := e.limits()
		lim.Cancel = ctx.Done()
		if prog, err := parser.ParseWithLimits(normalized, lim); err == nil {
			in.Prog = prog
		}
	}
	return set.Eval(ctx, in)
}
