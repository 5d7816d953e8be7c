// The engine's side of the declarative rules layer (internal/rules). Rules
// run in two stages: a cheap deny-only text pass before triage (front), and
// the full pass — lists, signatures, path predicates — after
// deobfuscation, just before the model (prepareSource).
// Everything here is nil-safe on a disabled rules layer: with Config.Rules
// unset the engine's verdicts are bit-identical to a rules-free build.
package scan

import (
	"context"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
)

// currentRules reads the live rule set once; nil means rules are disabled
// (no provider, or a provider with nothing loaded yet).
func (e *Engine) currentRules() *rules.Set {
	if e.cfg.Rules == nil {
		return nil
	}
	return e.cfg.Rules.Current()
}

// evalRules runs the full rules pass over one script with the same panic
// isolation the classifier gets: a rule evaluation must never take down a
// scan, so a panic yields the zero verdict (no action, no hits) and the
// model decides alone. The normalized source is parsed only when a loaded
// rule actually inspects path contexts; a parse failure is not an error —
// text rules still apply, path predicates simply cannot match.
func (e *Engine) evalRules(ctx context.Context, set *rules.Set, name, raw, normalized string) (v rules.Verdict) {
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
	if set.NeedsAST() {
		lim := parser.Limits{MaxDepth: e.cfg.MaxDepth, MaxTokens: e.cfg.MaxTokens, Cancel: ctx.Done()}
		if prog, err := parser.ParseWithLimits(normalized, lim); err == nil {
			in.Prog = prog
		}
	}
	return set.Eval(ctx, in)
}
