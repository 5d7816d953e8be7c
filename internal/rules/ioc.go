// IOC extraction and list matching. Indicators are matched against
// host-shaped and IPv4-shaped tokens pulled out of the script text (raw and
// deobfuscated) and out of AST string literals, not by blind substring
// search: "evil.com" on a deny list must flag cdn.evil.com but never
// notevil.com.
//
// Extraction is gated by needles: one probe per list indicator (each
// domain, "."+tld, and IP). A token can match a list only if it contains
// that indicator, and a text can yield such a token only if it contains the
// indicator too, so a text with no needle in it is skipped without running
// the extraction regexes (lists with more than maxGateProbes probes leave
// the gate open). Only tokens that match a list entry are kept. The
// verdict, the hits, and their evidence are exactly those of extracting
// every token — the gate only skips work that can never produce a match.
package rules

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"unicode/utf8"

	"jsrevealer/internal/js/ast"
)

// Extraction regexes. Host demands at least two labels with an alphabetic
// final label of plausible TLD length, which also keeps it from matching the
// numeric tokens the IP regex owns.
var (
	reHost = regexp.MustCompile(`(?i)[a-z0-9](?:[a-z0-9-]{0,62})(?:\.[a-z0-9](?:[a-z0-9-]{0,62}))*\.[a-z]{2,24}\b`)
	reIP   = regexp.MustCompile(`(?:\d{1,3}\.){3}\d{1,3}`)
)

// maxIOCTokens caps the kept tokens per category (hosts, IPs) per script so
// a hostile script cannot turn rule evaluation into unbounded work. Only
// tokens that match a list entry count toward it: padding a script with
// unrelated hosts cannot push a listed one past the cap.
const maxIOCTokens = 512

// maxGateProbes bounds the probes a gate looks for. Each probe is one
// substring scan of the text, about 1/250 of the extraction it can skip on
// BenchmarkRulesEval's obfuscated scripts, so up to this many probes cost
// at most about a quarter of that extraction. Lists with more
// leave the gate open: every text is extracted, as without a gate, at a
// cost independent of list size (the kept-token check is one lookup per
// label). The "feed" legs of BenchmarkRulesEval measure both sides.
const maxGateProbes = 64

// needles are the probes of a group of lists, plus the set of their
// entries a kept token must match. hosts are lowercase domains and
// "."+tld entries, matched under reHost's case folding (see folder); ips
// and strs are matched exactly.
type needles struct {
	hosts [][]byte
	ips   []string
	strs  []string

	domains, dotTLDs, ipSet map[string]bool
}

// add records the probes and entries of one compiled list. withStrs also
// records its literal strings (the deny prefilter gates on them;
// extraction does not need them, since strings match the texts directly).
// Host probes are folded like the texts they are sought in, which keeps the
// probe exact even for an indicator that itself contains U+017F.
func (n *needles) add(cl *compiledList, withStrs bool) {
	if n.domains == nil {
		n.domains, n.dotTLDs, n.ipSet = map[string]bool{}, map[string]bool{}, map[string]bool{}
	}
	var f folder
	for _, d := range cl.domains {
		n.domains[d] = true
		n.hosts = append(n.hosts, bytes.Clone(f.fold(d)))
	}
	for _, t := range cl.tlds {
		n.dotTLDs["."+t] = true
		n.hosts = append(n.hosts, bytes.Clone(f.fold("."+t)))
	}
	for ip := range cl.ips {
		n.ipSet[ip] = true
		n.ips = append(n.ips, ip)
	}
	if withStrs {
		n.strs = append(n.strs, cl.strs...)
	}
}

// empty reports whether the lists have no host or IP entry to extract for.
func (n *needles) empty() bool { return len(n.hosts)+len(n.ips) == 0 }

// open reports whether the lists are too large to probe for: extraction
// then runs on every text.
func (n *needles) open() bool { return len(n.hosts)+len(n.ips) > maxGateProbes }

// hostIn reports whether s contains a host needle under reHost's folding.
func (n *needles) hostIn(s string, f *folder) bool {
	b := f.fold(s)
	for _, nd := range n.hosts {
		if bytes.Contains(b, nd) {
			return true
		}
	}
	return false
}

// ipIn reports whether s contains an IP needle.
func (n *needles) ipIn(s string) bool { return containsAny(s, n.ips) }

// strIn reports whether s contains a literal-string needle.
func (n *needles) strIn(s string) bool { return containsAny(s, n.strs) }

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// listed reports whether the lowercase host h matches a domain or TLD
// entry — the test match applies (hostMatches, the "."+tld suffix), by
// lookup: h or a suffix of it starting a label is a listed domain, or a
// suffix starting at a dot is a listed "."+tld.
func (n *needles) listed(h string) bool {
	for i := 0; i < len(h); i++ {
		if (i == 0 || h[i-1] == '.') && n.domains[h[i:]] {
			return true
		}
		if h[i] == '.' && n.dotTLDs[h[i:]] {
			return true
		}
	}
	return false
}

// folder folds text for the host probe the way reHost's (?i) folds it:
// ASCII letters to lower case, plus the two non-ASCII runes Go's simple case
// folding pairs with ASCII letters, U+212A KELVIN SIGN (k) and U+017F LATIN
// SMALL LETTER LONG S (s). reHost accepts both as letters, so a host spelled
// with either must still meet its needle. One folder's buffer is reused
// across the texts of one evaluation.
type folder struct{ buf []byte }

const (
	kelvin = "\u212a"
	longS  = "\u017f"
)

// fold returns s folded, in the folder's buffer: valid until the next fold.
func (f *folder) fold(s string) []byte {
	b := slices.Grow(f.buf[:0], len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c < utf8.RuneSelf:
		case strings.HasPrefix(s[i:], kelvin):
			c, i = 'k', i+len(kelvin)-1
		case strings.HasPrefix(s[i:], longS):
			c, i = 's', i+len(longS)-1
		}
		b = append(b, c)
	}
	f.buf = b
	return b
}

// iocSet holds the deduplicated host and IP tokens extracted from one
// script's views, in first-seen order.
type iocSet struct {
	hosts []string // lowercase
	ips   []string
}

// extractor fills an iocSet from successive texts, keeping only tokens
// that match a list entry. The zero value with n set is ready.
type extractor struct {
	n    *needles
	f    folder
	io   iocSet
	seen map[string]bool // allocated on the first extracted text
}

// add extracts from s when s contains a needle (or the needles are open),
// and reports whether it did. Hosts and IPs are gated separately: a text
// with only an IP needle in it never runs the host regex.
func (x *extractor) add(s string) bool {
	open := x.n.open()
	host := len(x.n.hosts) > 0 && len(x.io.hosts) < maxIOCTokens && (open || x.n.hostIn(s, &x.f))
	ip := len(x.n.ips) > 0 && len(x.io.ips) < maxIOCTokens && (open || x.n.ipIn(s))
	if (host || ip) && x.seen == nil {
		x.seen = map[string]bool{}
	}
	if host {
		eachMatch(reHost, s, func(h string) bool {
			h = strings.ToLower(h)
			if !x.seen[h] && x.n.listed(h) {
				x.seen[h] = true
				x.io.hosts = append(x.io.hosts, h)
			}
			return len(x.io.hosts) < maxIOCTokens
		})
	}
	if ip {
		eachMatch(reIP, s, func(ip string) bool {
			if !x.seen[ip] && x.n.ipSet[ip] && validIPv4(ip) {
				x.seen[ip] = true
				x.io.ips = append(x.io.ips, ip)
			}
			return len(x.io.ips) < maxIOCTokens
		})
	}
	return host || ip
}

// stringLiterals joins the values of prog's string literals, in walk
// order, with a newline after each. No extracted token can span a newline
// (neither regex accepts one, and a newline is a \b boundary like the end of
// a string), so extracting from the joined text yields exactly the tokens
// of extracting from each literal in turn, and the gate probes once.
func stringLiterals(prog *ast.Program) string {
	var b strings.Builder
	ast.Walk(prog, func(n ast.Node) bool {
		if lit, ok := n.(*ast.Literal); ok && lit.Kind == ast.LiteralString {
			b.WriteString(lit.StrVal)
			b.WriteByte('\n')
		}
		return true
	})
	return b.String()
}

// eachMatch calls fn on each successive non-overlapping match of re in s,
// as FindAllString would return them, until fn returns false. Unlike
// FindAllString it needs no match cap to bound its memory. (Neither
// extraction regex begins with an assertion, so resuming on the tail of s
// finds exactly the matches a whole-string scan does.)
func eachMatch(re *regexp.Regexp, s string, fn func(string) bool) {
	for {
		loc := re.FindStringIndex(s)
		if loc == nil || !fn(s[loc[0]:loc[1]]) {
			return
		}
		s = s[loc[1]:]
	}
}

// validIPv4 rejects dotted quads with out-of-range octets, which the
// deliberately loose regex lets through.
func validIPv4(s string) bool {
	for _, part := range strings.SplitN(s, ".", 4) {
		if len(part) > 1 && part[0] == '0' {
			return false
		}
		n := 0
		for i := 0; i < len(part); i++ {
			n = n*10 + int(part[i]-'0')
		}
		if n > 255 {
			return false
		}
	}
	return true
}

// matchList checks one compiled list against the extracted IOCs and the
// script texts, returning the first matching indicator as evidence.
func (cl *compiledList) match(io *iocSet, texts []string) (string, bool) {
	for _, h := range io.hosts {
		for _, d := range cl.domains {
			if hostMatches(h, d) {
				return h, true
			}
		}
		for _, t := range cl.tlds {
			if strings.HasSuffix(h, "."+t) {
				return h, true
			}
		}
	}
	if cl.ips != nil {
		for _, ip := range io.ips {
			if _, ok := cl.ips[ip]; ok {
				return ip, true
			}
		}
	}
	for _, s := range cl.strs {
		for _, text := range texts {
			if strings.Contains(text, s) {
				return s, true
			}
		}
	}
	return "", false
}

// hostMatches reports whether host equals domain or is a subdomain of it.
// Both are lowercase.
func hostMatches(host, domain string) bool {
	if host == domain {
		return true
	}
	return len(host) > len(domain) && strings.HasSuffix(host, domain) &&
		host[len(host)-len(domain)-1] == '.'
}
