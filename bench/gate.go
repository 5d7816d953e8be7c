package main

import (
	"context"
	"fmt"

	"jsrevealer/internal/core"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
	"jsrevealer/internal/scan"
	"jsrevealer/internal/triage"
)

// gateScripts is how many open-loop scripts the correctness gate re-scans
// in-process.
const gateScripts = 200

// engineFor builds an in-process engine with w's server configuration
// around det, and the context its scans run under.
func engineFor(w *workload, det *core.Detector, cacheSize int) (*scan.Engine, context.Context, *rules.Set, error) {
	set, err := benchRules()
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := scanConfig(w)
	cfg.CacheSize = cacheSize
	if w.rules {
		cfg.Rules = rules.StaticProvider{Set: set}
	}
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	if w.deob {
		ctx = scan.WithDeobfuscate(ctx, true)
	}
	return scan.New(det, cfg), ctx, set, nil
}

// scanConfig is the scan configuration of w's server.
func scanConfig(w *workload) scan.Config {
	var cfg scan.Config
	if w.triage {
		cfg.Triage = triage.Config{Threshold: triage.DefaultThreshold}
	}
	return cfg
}

// benchRules loads rulesDir the way the server does: parsed, shadow
// validated, generation 1.
func benchRules() (*rules.Set, error) {
	set, err := rules.Load(rulesDir)
	if err != nil {
		return nil, err
	}
	if err := rules.ShadowValidate(set); err != nil {
		return nil, err
	}
	set.Gen = 1
	return set, nil
}

// gate checks the first gateScripts served verdicts against an in-process
// engine built with the same model and configuration. The reference engine
// has no cache, so a served cache hit matches any reference tier: which
// request of a repeated script fills the cache depends on arrival order.
func gate(w *workload, model string, ops []op, res []result) error {
	det, err := core.Load(model)
	if err != nil {
		return err
	}
	eng, ctx, _, err := engineFor(w, det, -1)
	if err != nil {
		return err
	}
	checked := 0
	for i, o := range ops {
		if res[i].err != nil {
			continue
		}
		for k, p := range o.parts {
			if checked == gateScripts {
				return nil
			}
			checked++
			got := res[i].verdicts[k]
			want := eng.ScanSource(ctx, p.name(), p.content())
			if got.Verdict != want.Verdict.String() || (got.Tier != scan.TierCache && got.Tier != want.Tier) {
				return fmt.Errorf("%s: served %s/%s, in-process engine says %s/%s",
					p.name(), got.Verdict, got.Tier, want.Verdict, want.Tier)
			}
		}
	}
	if checked < gateScripts {
		return fmt.Errorf("only %d answered scripts to check, want %d", checked, gateScripts)
	}
	return nil
}
