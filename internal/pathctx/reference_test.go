package pathctx

// Path extraction as it stood before leaf chains were windowed: every leaf
// copies its whole root chain (nodes, types, child indexes), the LCA of
// adjacent leaves is found by comparing chains, and every qualifying pair
// is collected before sampling. It is kept only as the oracle that Extract
// is checked against (oracle_test.go), so it is not edited except to
// rename it.

import (
	"time"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/dataflow"
)

// refExtract is the reference ExtractTimed.
func refExtract(prog *ast.Program, opts Options) ([]Path, Timing) {
	if opts.MaxLength <= 0 {
		opts.MaxLength = DefaultMaxLength
	}
	if opts.MaxWidth <= 0 {
		opts.MaxWidth = DefaultMaxWidth
	}
	var tm Timing
	var info *dataflow.Info
	if opts.UseDataFlow {
		t0 := time.Now()
		info = dataflow.Analyze(prog)
		tm.DataFlow = time.Since(t0)
	}
	t0 := time.Now()
	types := inferTypes(prog)

	leaves := refCollectLeaves(prog, info, types)
	// Pair enumeration is quadratic in the leaf count, so heavily
	// obfuscated files (hundreds of kilobytes, tens of thousands of leaves)
	// must be down-sampled before enumeration — the same "limit the number
	// of extracted paths" requirement the paper states, applied one level
	// earlier so the cost bound holds too.
	if opts.MaxPaths > 0 {
		maxLeaves := 4 * opts.MaxPaths
		if len(leaves) > maxLeaves {
			idx := strideIndices(len(leaves), maxLeaves)
			kept := make([]refLeaf, len(idx))
			for i, j := range idx {
				kept[i] = leaves[j]
			}
			leaves = kept
		}
	}
	paths := refEnumerate(leaves, opts)
	tm.Traversal = time.Since(t0)
	return paths, tm
}

// refLeaf is an AST leaf annotated with its abstracted value and the chain of
// ancestors from the root (inclusive of the leaf itself).
type refLeaf struct {
	value string
	// chain[0] is the root; chain[len-1] is the leaf node.
	chain []ast.Node
	// typs[i] is chain[i].Type(), cached so path construction copies
	// strings instead of re-dispatching the interface method per pair.
	typs []string
	// childIdx[i] is the index of chain[i+1] among chain[i]'s children.
	childIdx []int
}

// refNodeArena hands out []ast.Node chunks carved from shared blocks.
type refNodeArena struct{ free []ast.Node }

func (a *refNodeArena) alloc(n int) []ast.Node {
	if len(a.free) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.free = make([]ast.Node, size)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// refCollectLeaves gathers all leaves in source order with their root chains.
// Chain and child-index copies come from shared arenas, not per-leaf makes.
func refCollectLeaves(prog *ast.Program, info *dataflow.Info, types map[string]string) []refLeaf {
	var out []refLeaf
	var chain []ast.Node
	var typs []string
	var idxs []int
	var nodes refNodeArena
	var strs arena[string]
	var ints arena[int]

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if len(chain) >= maxWalkDepth {
			return
		}
		chain = append(chain, n)
		typs = append(typs, n.Type())
		kids := n.Children()
		if len(kids) == 0 {
			val := leafValue(n, info, types)
			if val != "" {
				c := nodes.alloc(len(chain))
				copy(c, chain)
				ct := strs.alloc(len(typs))
				copy(ct, typs)
				ci := ints.alloc(len(idxs))
				copy(ci, idxs)
				out = append(out, refLeaf{value: val, chain: c, typs: ct, childIdx: ci})
			}
		}
		for i, k := range kids {
			idxs = append(idxs, i)
			walk(k)
			idxs = idxs[:len(idxs)-1]
		}
		chain = chain[:len(chain)-1]
		typs = typs[:len(typs)-1]
	}
	walk(prog)
	return out
}

// refEnumerate produces leaf pairs whose connecting path satisfies the length
// and width bounds, stopping once far more paths than the final sample
// needs have been collected.
func refEnumerate(leaves []refLeaf, opts Options) []Path {
	budget := -1
	if opts.MaxPaths > 0 {
		budget = 20 * opts.MaxPaths
	}
	if len(leaves) < 2 {
		return nil
	}
	// Leaves arrive in DFS order, so the last common chain index of any pair
	// (i, j) is the minimum of the adjacent-pair values over [i, j).
	// Precomputing those n-1 values turns each pair's LCA into a single
	// comparison instead of a root-down walk with interface equality checks —
	// the dominant cost of the quadratic enumeration.
	adjLCA := make([]int, len(leaves)-1)
	for j := 0; j+1 < len(leaves); j++ {
		adjLCA[j] = refLastCommonIndex(leaves[j], leaves[j+1])
	}
	// Pass 1: collect qualifying pairs as index triples. Paths themselves are
	// built only after down-sampling — at the default bounds 95% of the
	// enumerated pairs are discarded by the sampler, so building them (arena
	// copies, write barriers, GC pressure) would be pure waste.
	var refs []refPair
	for i := 0; i < len(leaves); i++ {
		lca := len(leaves[i].chain) // running LCA index of (i, j); shrinks as j advances
		for j := i + 1; j < len(leaves); j++ {
			if d := adjLCA[j-1]; d < lca {
				lca = d
			}
			// The upward half of the path only grows as j advances (lca is
			// non-increasing); once it cannot fit MaxLength even with the
			// shortest possible downward half, no later j qualifies either.
			if len(leaves[i].chain)-lca+1 > opts.MaxLength {
				break
			}
			if refFits(leaves[i], leaves[j], lca, opts) {
				refs = append(refs, refPair{a: i, b: j, lca: lca})
				if budget > 0 && len(refs) >= budget {
					goto sampled
				}
			}
		}
	}
sampled:
	if opts.MaxPaths > 0 && len(refs) > opts.MaxPaths {
		refs = refSampleRefs(refs, opts.MaxPaths)
	}
	// Pass 2: build only the surviving paths.
	out := make([]Path, len(refs))
	var arena arena[string]
	for i, r := range refs {
		out[i] = refBuild(leaves[r.a], leaves[r.b], r.lca, &arena)
	}
	return out
}

// refPair is one qualifying leaf pair with its precomputed LCA index.
type refPair struct{ a, b, lca int }

// refLastCommonIndex returns the last chain index shared by two leaves' root
// chains (>= 0: the root is always shared).
func refLastCommonIndex(a, b refLeaf) int {
	n := len(a.chain)
	if len(b.chain) < n {
		n = len(b.chain)
	}
	i := 0
	for i < n && a.chain[i] == b.chain[i] {
		i++
	}
	return i - 1
}

// refFits reports whether the path context between two leaves satisfies the
// width and length bounds. lca is the pair's last common chain index.
func refFits(a, b refLeaf, lca int, opts Options) bool {
	if lca < 0 {
		return false
	}
	// Width: distance of the child indices immediately below the LCA. When a
	// leaf *is* the LCA the width constraint does not apply in the same way;
	// such degenerate paths (one leaf an ancestor of the other) are skipped
	// because both endpoints of a path context must be distinct leaves.
	if lca >= len(a.childIdx) || lca >= len(b.childIdx) {
		return false
	}
	width := b.childIdx[lca] - a.childIdx[lca]
	if width < 0 {
		width = -width
	}
	if width > opts.MaxWidth {
		return false
	}
	// Length: nodes up from a's leaf to LCA plus down to b's leaf, counting
	// both leaf nodes once each.
	upLen := len(a.chain) - 1 - lca   // edges from a-refLeaf up to LCA
	downLen := len(b.chain) - 1 - lca // edges from LCA down to b-refLeaf
	return upLen+downLen+1 <= opts.MaxLength
}

// refBuild constructs the path context of a qualifying pair (fits already
// checked). The node sequence is carved from the shared arena.
func refBuild(a, b refLeaf, lca int, arena *arena[string]) Path {
	k := (len(a.chain) - 1 - lca) + (len(b.chain) - 1 - lca) + 1
	nodes := arena.alloc(k)[:0]
	for d := len(a.chain) - 1; d >= lca; d-- {
		nodes = append(nodes, a.typs[d])
	}
	nodes = append(nodes, b.typs[lca+1:len(b.chain)]...)
	return Path{Source: a.value, Target: b.value, Nodes: nodes}
}

// refSampleRefs deterministically reduces the qualifying pairs to n entries
// with an even stride so the selection covers the whole file.
func refSampleRefs(refs []refPair, n int) []refPair {
	out := make([]refPair, 0, n)
	stride := float64(len(refs)) / float64(n)
	pos := 0.0
	for len(out) < n {
		idx := int(pos)
		if idx >= len(refs) {
			break
		}
		out = append(out, refs[idx])
		pos += stride
	}
	return out
}
