// The engine's side of the deobfuscation stage: resolving whether one scan
// should normalize (engine default, overridable per request via context) and
// running the pipeline under the per-file deadline with a "scan.deob" span
// so its cost lands in stages_ms next to parse and classify.
package scan

import (
	"context"

	"jsrevealer/internal/obs"
)

// deobCtxKey carries a per-scan override of Config.Deobfuscate.Enabled.
type deobCtxKey struct{}

// WithDeobfuscate overrides the engine's Deobfuscate.Enabled setting for
// every scan run under the returned context — the hook the serving layer
// uses for the per-request ?deobfuscate= switch. The override changes only
// whether the normalization stage runs; budgets (MaxRounds, MaxNodes) stay
// at the engine's configured values.
func WithDeobfuscate(ctx context.Context, enabled bool) context.Context {
	return context.WithValue(ctx, deobCtxKey{}, enabled)
}

// deobOn resolves the effective deobfuscation setting for one scan: the
// context override when present, the engine config otherwise.
func (e *Engine) deobOn(ctx context.Context) bool {
	if v, ok := ctx.Value(deobCtxKey{}).(bool); ok {
		return v
	}
	return e.cfg.Deobfuscate.Enabled
}

// normalizeSource runs the deobfuscation pipeline over src and returns the
// normalized source plus the passes that fired (the deob_passes
// provenance). Any failure — parse error, budget cut mid-way, panic inside
// a pass — returns src unchanged: normalization is an accuracy
// optimization, never a gate, so a script the pipeline cannot handle is
// simply classified as submitted. The ctx deadline is threaded through the
// re-parse, and the stage is covered by a "scan.deob" span so its cost
// shows up in traces and audit stage timings.
func (e *Engine) normalizeSource(ctx context.Context, src string) (string, []string) {
	ctx, sp := obs.StartSpan(ctx, "scan.deob")
	defer sp.End()
	out, rep, err := e.deob.Normalize(ctx, src, e.limits())
	if err != nil || rep == nil {
		return src, nil
	}
	return out, rep.Fired()
}
