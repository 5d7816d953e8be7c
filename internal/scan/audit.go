// The engine's side of the verdict audit trail: provenance is collected
// where the verdict is decided (front knows the cache outcome, the Result
// names the tier; the context carries the request metadata and trace)
// and written as one audit.Record per result, plus one webhook alert for
// alert-worthy rule verdicts. Everything here is gated on Config.Audit and
// Config.Alert — with both nil it costs nothing on the hot path.
package scan

import (
	"context"
	"encoding/hex"
	"time"

	"jsrevealer/internal/alert"
	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
)

// provenance is the audit-relevant context of one verdict that the Result
// itself does not carry, threaded out of phase 1 alongside it. The zero
// value (auditing disabled) carries nothing — except rset, which is pinned
// for every scan so one file never mixes rule generations across a hot
// reload.
type provenance struct {
	sha       string            // hex content digest
	cache     string            // hit | miss | off
	cacheTier string            // on a hit: the tier that produced the cached entry
	stages    *obs.StageTimings // per-stage durations, nil unless auditing
	rset      *rules.Set        // rule set pinned for this scan; nil = rules off
}

// recordResult reports one finished result to the configured sinks: an
// audit record, and — when the rule hits warrant one (deny or forcing
// signature, rules.ShouldAlert) — a webhook alert carrying the same
// provenance, so the two streams join on sha256 or trace_id. Call it after
// Duration is stamped. No-op when both sinks are disabled.
func (e *Engine) recordResult(ctx context.Context, res Result, prov provenance) {
	if e.cfg.Audit == nil && e.cfg.Alert == nil {
		return
	}
	m := audit.MetaFromContext(ctx)
	var traceID string
	if sp := obs.SpanFromContext(ctx); sp != nil {
		traceID = sp.TraceID.String()
	} else if rc, ok := obs.RemoteFromContext(ctx); ok {
		traceID = rc.TraceID.String()
	}
	if e.cfg.Audit != nil {
		rec := audit.Record{
			Name:       res.Path,
			SHA256:     prov.sha,
			Verdict:    res.Verdict.String(),
			Malicious:  res.Malicious,
			Bytes:      res.Bytes,
			DurationMS: float64(res.Duration) / float64(time.Millisecond),
			Tier:       res.Tier,
			Cache:      prov.cache,
			CacheTier:  prov.cacheTier,
			Model:      e.cfg.AuditModel,
			Source:     m.Source,
			Job:        m.Job,
			Attempt:    m.Attempt,
			RequestID:  m.RequestID,
			DeobPasses: res.DeobPasses,
			RuleHits:   res.RuleHits,
			TraceID:    traceID,
		}
		if res.Err != nil {
			rec.Reason = Reason(res.Err)
			rec.Error = res.Err.Error()
		}
		if prov.stages != nil {
			if snap := prov.stages.Snapshot(); len(snap) > 0 {
				rec.StagesMS = make(map[string]float64, len(snap))
				for stage, d := range snap {
					rec.StagesMS[stage] = float64(d) / float64(time.Millisecond)
				}
			}
		}
		e.cfg.Audit.Write(rec)
	}
	if e.cfg.Alert != nil && rules.ShouldAlert(res.RuleHits) {
		e.cfg.Alert.Publish(alert.Alert{
			Name:      res.Path,
			SHA256:    prov.sha,
			Verdict:   res.Verdict.String(),
			Hits:      res.RuleHits,
			Source:    m.Source,
			TraceID:   traceID,
			RequestID: m.RequestID,
		})
	}
}

// hexKey renders a content digest as the audit trail's sha256.
func hexKey(k digest) string {
	return hex.EncodeToString(k[:])
}
