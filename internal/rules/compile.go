// Compilation: welding validated rule files into one immutable Set. This is
// where whole-set invariants live — unique IDs across every file, refs
// resolving to real signatures, and an acyclic ref graph — and where regexes
// are compiled once so evaluation never pays parse cost.
package rules

import (
	"fmt"
	"regexp"
	"strings"
	"time"
)

// Set is one compiled, immutable rule-set generation. All evaluation methods
// are safe for concurrent use and safe on a nil receiver (a nil Set matches
// nothing), so callers can hold "rules disabled" as nil without branching.
type Set struct {
	// Gen is the generation stamp the Holder assigns when the set takes
	// traffic. It is part of the scan verdict-cache key, so verdicts
	// computed under an older rule set are never served after a reload.
	Gen uint64

	files    int
	loadedAt time.Time

	allow []*compiledList
	deny  []*compiledList
	sigs  []*compiledSig

	// denyNeedles are the cheap prefilter probes for EvalText: one entry
	// per deny-list indicator. needleFold entries are matched
	// ASCII-case-insensitively (hosts), needleExact case-sensitively
	// (literal strings). Extraction and proper confirmation only run when
	// a probe hits, so the pre-triage stage stays near-free on clean
	// traffic.
	denyNeedles []needle

	// needPaths records whether any signature contains a path predicate,
	// so the engine only parses the normalized source for rules when a
	// rule can actually use the AST.
	needPaths bool
}

// needle is one EvalText prefilter probe.
type needle struct {
	s    string
	fold bool // ASCII-case-insensitive when true
}

// compiledList is a ListRule with lowercased host indicators and its
// allow/deny role resolved.
type compiledList struct {
	id       string
	kind     string // HitDeny or HitAllow
	severity string
	domains  []string // lowercase
	ips      map[string]struct{}
	tlds     []string // lowercase, no leading dot
	strs     []string // case-sensitive substrings
}

// compiledSig is a Signature with its match tree compiled and refs resolved.
type compiledSig struct {
	id       string
	severity string
	match    *compiledMatch
}

// matchOp discriminates compiledMatch variants.
type matchOp int

const (
	opAll matchOp = iota
	opAny
	opNot
	opSubstring
	opRegex
	opPath
)

// compiledMatch is one node of a compiled match tree. Refs are resolved at
// compile time by aliasing the target signature's compiled tree, so
// evaluation never chases IDs.
type compiledMatch struct {
	op   matchOp
	kids []*compiledMatch
	str  string
	re   *regexp.Regexp
	path *PathPred
}

// Files reports how many rule files produced the set.
func (s *Set) Files() int {
	if s == nil {
		return 0
	}
	return s.files
}

// Rules reports the total number of rules (lists plus signatures).
func (s *Set) Rules() int {
	if s == nil {
		return 0
	}
	return len(s.allow) + len(s.deny) + len(s.sigs)
}

// NeedsAST reports whether any rule inspects path contexts, i.e. whether
// the engine should hand Eval a parsed program.
func (s *Set) NeedsAST() bool { return s != nil && s.needPaths }

// Generation reports the set's generation stamp; a nil set (rules disabled)
// is generation 0, which no live set ever is — Holder generations start at 1.
func (s *Set) Generation() uint64 {
	if s == nil {
		return 0
	}
	return s.Gen
}

// Compile merges validated files into one Set, enforcing whole-set
// invariants: total rule count, globally unique IDs, refs that resolve to
// signatures, and an acyclic ref graph.
func Compile(files []*File) (*Set, error) {
	set := &Set{}
	ids := map[string]bool{}
	total := 0
	claim := func(id string) error {
		total++
		if total > MaxRules {
			return fmt.Errorf("rules: more than %d rules in set", MaxRules)
		}
		if ids[id] {
			return fmt.Errorf("rules: duplicate rule id %q", id)
		}
		ids[id] = true
		return nil
	}

	// Index signatures first so refs can point at rules in any file, in
	// any order.
	sigByID := map[string]*Signature{}
	for _, f := range files {
		for i := range f.Signatures {
			s := &f.Signatures[i]
			if err := claim(s.ID); err != nil {
				return nil, err
			}
			sigByID[s.ID] = s
		}
	}
	if err := checkRefs(sigByID); err != nil {
		return nil, err
	}

	compiled := map[string]*compiledMatch{}
	var build func(id string, m *MatchNode) (*compiledMatch, error)
	build = func(id string, m *MatchNode) (*compiledMatch, error) {
		switch {
		case len(m.All) > 0 || len(m.Any) > 0:
			cm := &compiledMatch{op: opAll}
			kids := m.All
			if len(m.Any) > 0 {
				cm.op = opAny
				kids = m.Any
			}
			for _, k := range kids {
				ck, err := build(id, k)
				if err != nil {
					return nil, err
				}
				cm.kids = append(cm.kids, ck)
			}
			return cm, nil
		case m.Not != nil:
			ck, err := build(id, m.Not)
			if err != nil {
				return nil, err
			}
			return &compiledMatch{op: opNot, kids: []*compiledMatch{ck}}, nil
		case m.Substring != "":
			return &compiledMatch{op: opSubstring, str: m.Substring}, nil
		case m.Regex != "":
			re, err := regexp.Compile(m.Regex)
			if err != nil {
				// Parse already compiled it; unreachable outside
				// hand-built Files.
				return nil, fmt.Errorf("rules: %s: bad regex: %w", id, err)
			}
			return &compiledMatch{op: opRegex, re: re, str: m.Regex}, nil
		case m.Path != nil:
			set.needPaths = true
			return &compiledMatch{op: opPath, path: m.Path}, nil
		case m.Ref != "":
			if cm, ok := compiled[m.Ref]; ok {
				return cm, nil
			}
			target := sigByID[m.Ref] // checkRefs guaranteed it exists
			cm, err := build(m.Ref, target.Match)
			if err != nil {
				return nil, err
			}
			compiled[m.Ref] = cm
			return cm, nil
		}
		return nil, fmt.Errorf("rules: %s: empty match node", id)
	}

	for _, f := range files {
		for i := range f.Signatures {
			s := &f.Signatures[i]
			cm, ok := compiled[s.ID]
			if !ok {
				var err error
				cm, err = build(s.ID, s.Match)
				if err != nil {
					return nil, err
				}
				compiled[s.ID] = cm
			}
			sev := s.Severity
			if sev == "" {
				sev = SeverityMedium
			}
			set.sigs = append(set.sigs, &compiledSig{id: s.ID, severity: sev, match: cm})
		}
		for i := range f.Allow {
			cl, err := compileList(&f.Allow[i], HitAllow, SeverityInfo, claim)
			if err != nil {
				return nil, err
			}
			set.allow = append(set.allow, cl)
		}
		for i := range f.Deny {
			cl, err := compileList(&f.Deny[i], HitDeny, SeverityHigh, claim)
			if err != nil {
				return nil, err
			}
			set.deny = append(set.deny, cl)
			for _, d := range cl.domains {
				set.denyNeedles = append(set.denyNeedles, needle{s: d, fold: true})
			}
			for ip := range cl.ips {
				set.denyNeedles = append(set.denyNeedles, needle{s: ip})
			}
			for _, t := range cl.tlds {
				set.denyNeedles = append(set.denyNeedles, needle{s: "." + t, fold: true})
			}
			for _, str := range cl.strs {
				set.denyNeedles = append(set.denyNeedles, needle{s: str})
			}
		}
	}
	return set, nil
}

// compileList lowercases host indicators and resolves the rule's role.
func compileList(r *ListRule, kind, defSev string, claim func(string) error) (*compiledList, error) {
	if err := claim(r.ID); err != nil {
		return nil, err
	}
	sev := r.Severity
	if sev == "" {
		sev = defSev
	}
	cl := &compiledList{id: r.ID, kind: kind, severity: sev, strs: r.Strings}
	for _, d := range r.Domains {
		cl.domains = append(cl.domains, strings.ToLower(d))
	}
	if len(r.IPs) > 0 {
		cl.ips = make(map[string]struct{}, len(r.IPs))
		for _, ip := range r.IPs {
			cl.ips[ip] = struct{}{}
		}
	}
	for _, t := range r.TLDs {
		cl.tlds = append(cl.tlds, strings.ToLower(strings.TrimPrefix(t, ".")))
	}
	return cl, nil
}

// checkRefs verifies every ref resolves to a signature and that the ref
// graph is acyclic, via three-color DFS over signature IDs.
func checkRefs(sigs map[string]*Signature) error {
	const (
		white = 0 // unvisited
		gray  = 1 // on the DFS stack
		black = 2 // fully explored
	)
	color := map[string]int{}
	var visit func(id string) error
	visit = func(id string) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("rules: ref cycle through %q", id)
		case black:
			return nil
		}
		color[id] = gray
		var walk func(m *MatchNode) error
		walk = func(m *MatchNode) error {
			if m == nil {
				return nil
			}
			if m.Ref != "" {
				if _, ok := sigs[m.Ref]; !ok {
					return fmt.Errorf("rules: %s: ref %q does not name a signature", id, m.Ref)
				}
				return visit(m.Ref)
			}
			for _, c := range m.All {
				if err := walk(c); err != nil {
					return err
				}
			}
			for _, c := range m.Any {
				if err := walk(c); err != nil {
					return err
				}
			}
			return walk(m.Not)
		}
		if err := walk(sigs[id].Match); err != nil {
			return err
		}
		color[id] = black
		return nil
	}
	for id := range sigs {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}
