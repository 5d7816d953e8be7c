// Evaluation: turning a compiled Set plus one script's views into a rule
// Verdict. Two entry points exist because the scan pipeline is tiered:
// EvalText is the cheap pre-triage pass that guarantees deny-listed IOCs can
// never be cleared by the lexical pre-filter, and Eval is the full pass that
// runs post-deobfuscation so encoded indicators and signature patterns are
// matched against the decoded view as well as the raw one.
package rules

import (
	"context"
	"strings"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/pathctx"
)

// Hit kinds carried on Hit.Kind.
const (
	// HitDeny marks a deny-list match (forces malicious).
	HitDeny = "deny"
	// HitAllow marks an allow-list match (short-circuits benign unless
	// overridden by a deny or forcing signature).
	HitAllow = "allow"
	// HitSignature marks a signature match; whether it forced the verdict
	// depends on its severity.
	HitSignature = "signature"
)

// MaxHits caps the rule hits recorded per scan; beyond it further matches
// still count toward the verdict but are not enumerated in provenance.
const MaxHits = 16

// Hit is one rule match, surfaced as rule_hits provenance in scan results,
// the serving API, alerts, and the audit trail.
type Hit struct {
	// Rule is the matching rule's ID.
	Rule string `json:"rule"`
	// Kind is HitDeny, HitAllow, or HitSignature.
	Kind string `json:"kind"`
	// Severity is the rule's severity.
	Severity string `json:"severity,omitempty"`
	// Evidence names what matched: the IOC token, the substring or
	// pattern, or a path-predicate summary.
	Evidence string `json:"evidence,omitempty"`
}

// Action is the rule layer's contribution to the combined verdict.
type Action int

// Actions, in increasing precedence of what they override.
const (
	// ActionNone leaves the verdict to the model (hits, if any, only
	// annotate).
	ActionNone Action = iota
	// ActionBenign short-circuits the verdict to benign (allow hit).
	ActionBenign
	// ActionMalicious forces the verdict to malicious (deny or forcing
	// signature hit).
	ActionMalicious
)

// Verdict is the outcome of evaluating a rule set over one script.
type Verdict struct {
	// Action is what the rule layer demands of the combined verdict.
	Action Action
	// Hits are the matched rules, deny first, then signatures, then
	// allow, capped at MaxHits.
	Hits []Hit
}

// Input is one script's views handed to Eval: the raw bytes as submitted,
// the deobfuscated source when normalization ran (empty or equal to Raw
// otherwise), and optionally the parsed program for path predicates (the
// engine parses only when NeedsAST reports a rule wants it).
type Input struct {
	// Name is the script's name, used only for diagnostics.
	Name string
	// Raw is the source as submitted.
	Raw string
	// Normalized is the deobfuscated source; may be empty or equal Raw.
	Normalized string
	// Prog is the parsed (normalized) program, or nil.
	Prog *ast.Program
	// Paths, when non-nil, supplies Prog's path contexts as
	// pathctx.Extract(Prog, PathOptions()) would return them,
	// so a caller that needs the same paths itself (the scan engine, for a
	// model extracting with the default options) extracts them once. Eval
	// calls it at most once, and only when a path predicate is reached.
	// When nil, Eval extracts from Prog itself.
	Paths func() []pathctx.Path
}

// texts returns the distinct text views: the raw source, then the
// normalized one when it differs.
func (in *Input) texts() []string {
	if in.Normalized != "" && in.Normalized != in.Raw {
		return []string{in.Raw, in.Normalized}
	}
	return []string{in.Raw}
}

// ShouldAlert reports whether hits warrant pushing an alert: any deny hit
// or any forcing-severity signature hit.
func ShouldAlert(hits []Hit) bool {
	for _, h := range hits {
		if h.Kind == HitDeny || (h.Kind == HitSignature && Forcing(h.Severity)) {
			return true
		}
	}
	return false
}

// EvalText is the pre-triage stage: deny lists only, against the raw bytes.
// It exists so a deny-listed IOC is caught even on scripts the lexical
// triage tier would clear without parsing. The fast path is the deny
// needles' probe (see ioc.go); extraction and proper host/IP confirmation
// run only when a probe hits, so clean traffic pays a near-zero toll. Safe
// on nil.
func (s *Set) EvalText(ctx context.Context, raw string) Verdict {
	if s == nil || len(s.deny) == 0 {
		return Verdict{}
	}
	x := extractor{n: &s.denyNeedles}
	if !x.add(raw) && !s.denyNeedles.strIn(raw) {
		return Verdict{}
	}
	texts := []string{raw}
	var v Verdict
	for _, cl := range s.deny {
		if ev, ok := cl.match(&x.io, texts); ok {
			v.addHit(Hit{Rule: cl.id, Kind: HitDeny, Severity: cl.severity, Evidence: ev})
		}
	}
	if len(v.Hits) > 0 {
		v.Action = ActionMalicious
		s.record(ctx, &v, "deny")
	}
	return v
}

// Eval is the full rule pass, run in the pipeline after deobfuscation: IOC
// lists over the raw and normalized views plus AST string literals, and
// every signature, with path contexts extracted lazily only when a reached
// path predicate needs them. Host/IP extraction runs only on the views and
// literals that contain a list indicator (see ioc.go). Safe on nil (matches
// nothing).
func (s *Set) Eval(ctx context.Context, in Input) Verdict {
	if s == nil {
		return Verdict{}
	}
	texts := in.texts()
	x := extractor{n: &s.iocNeedles}
	for _, t := range texts {
		x.add(t)
	}
	if in.Prog != nil && !s.iocNeedles.empty() {
		x.add(stringLiterals(in.Prog))
	}
	return s.verdict(ctx, in, texts, &x.io)
}

// verdict runs the lists over the extracted IOCs and every signature, and
// combines their hits under the fixed precedence.
func (s *Set) verdict(ctx context.Context, in Input, texts []string, io *iocSet) Verdict {
	var deny, allow, sig []Hit
	for _, cl := range s.deny {
		if ev, ok := cl.match(io, texts); ok {
			deny = append(deny, Hit{Rule: cl.id, Kind: HitDeny, Severity: cl.severity, Evidence: ev})
		}
	}
	for _, cl := range s.allow {
		if ev, ok := cl.match(io, texts); ok {
			allow = append(allow, Hit{Rule: cl.id, Kind: HitAllow, Severity: cl.severity, Evidence: ev})
		}
	}
	ec := &evalCtx{texts: texts, prog: in.Prog, extract: in.Paths}
	forcing := false
	for _, cs := range s.sigs {
		if ctx.Err() != nil {
			break
		}
		if ev, ok := ec.eval(cs.match); ok {
			sig = append(sig, Hit{Rule: cs.id, Kind: HitSignature, Severity: cs.severity, Evidence: ev})
			if Forcing(cs.severity) {
				forcing = true
			}
		}
	}

	var v Verdict
	for _, h := range deny {
		v.addHit(h)
	}
	for _, h := range sig {
		v.addHit(h)
	}
	for _, h := range allow {
		v.addHit(h)
	}
	outcome := "none"
	switch {
	case len(deny) > 0:
		v.Action, outcome = ActionMalicious, "deny"
	case forcing:
		v.Action, outcome = ActionMalicious, "force"
	case len(allow) > 0:
		v.Action, outcome = ActionBenign, "allow"
	case len(sig) > 0:
		outcome = "annotate"
	}
	s.record(ctx, &v, outcome)
	return v
}

// addHit appends h unless the provenance cap is reached or the rule already
// hit (a rule records at most one hit per scan).
func (v *Verdict) addHit(h Hit) {
	if len(v.Hits) >= MaxHits {
		return
	}
	for _, e := range v.Hits {
		if e.Rule == h.Rule {
			return
		}
	}
	v.Hits = append(v.Hits, h)
}

// record bumps the per-outcome and per-rule counters on the context's
// metrics registry.
func (s *Set) record(ctx context.Context, v *Verdict, outcome string) {
	reg := obs.FromContext(ctx)
	reg.Counter(metricEvals, helpEvals, obs.Labels{"outcome": outcome}).Inc()
	for _, h := range v.Hits {
		reg.Counter(metricHits, helpHits, obs.Labels{"rule": h.Rule}).Inc()
	}
}

// PathOptions are the path-extraction options path predicates match
// against.
func PathOptions() pathctx.Options { return pathctx.DefaultOptions() }

// evalCtx carries one script's views through a signature match tree, with
// path contexts extracted at most once and only on first use.
type evalCtx struct {
	texts   []string
	prog    *ast.Program
	extract func() []pathctx.Path // Input.Paths, or nil

	paths     []pathctx.Path
	pathsDone bool
}

// eval evaluates one compiled match node, returning whether it matched and
// the first concrete evidence found.
func (ec *evalCtx) eval(m *compiledMatch) (string, bool) {
	switch m.op {
	case opAll:
		ev := ""
		for _, k := range m.kids {
			kev, ok := ec.eval(k)
			if !ok {
				return "", false
			}
			if ev == "" {
				ev = kev
			}
		}
		return ev, true
	case opAny:
		for _, k := range m.kids {
			if ev, ok := ec.eval(k); ok {
				return ev, true
			}
		}
		return "", false
	case opNot:
		if _, ok := ec.eval(m.kids[0]); ok {
			return "", false
		}
		return "", true
	case opSubstring:
		for _, t := range ec.texts {
			if strings.Contains(t, m.str) {
				return m.str, true
			}
		}
		return "", false
	case opRegex:
		for _, t := range ec.texts {
			if loc := m.re.FindStringIndex(t); loc != nil {
				return t[loc[0]:loc[1]], true
			}
		}
		return "", false
	case opPath:
		return ec.evalPath(m.path)
	}
	return "", false
}

// evalPath counts extracted path contexts satisfying the predicate.
func (ec *evalCtx) evalPath(p *PathPred) (string, bool) {
	if !ec.pathsDone {
		ec.pathsDone = true
		switch {
		case ec.extract != nil:
			ec.paths = ec.extract()
		case ec.prog != nil:
			ec.paths = pathctx.Extract(ec.prog, PathOptions())
		}
	}
	min := p.MinCount
	if min < 1 {
		min = 1
	}
	n := 0
	for i := range ec.paths {
		pc := &ec.paths[i]
		if p.Source != "" && pc.Source != p.Source {
			continue
		}
		if p.Target != "" && pc.Target != p.Target {
			continue
		}
		if p.Node != "" && !containsNode(pc.Nodes, p.Node) {
			continue
		}
		n++
		if n >= min {
			return "path:" + pc.String(), true
		}
	}
	return "", false
}

func containsNode(nodes []string, want string) bool {
	for _, n := range nodes {
		if n == want {
			return true
		}
	}
	return false
}
