// Package pathctx extracts path contexts from enhanced ASTs.
//
// A path context is the triple <x_s, n1..nk, x_t> of the JSRevealer paper
// (after Alon et al.'s code2vec): x_s and x_t are the values associated with
// two leaves of the AST and n1..nk is the sequence of node types on the
// tree path between them. Paths are bounded by a maximum length (k) and a
// maximum width (the child-index distance at the path's topmost node).
//
// Leaves whose identifier participates in a data dependency keep their
// concrete value; all other leaves are abstracted to a type indicator such
// as "@var_str" or "@var_int", which is what makes the representation
// robust to renaming-style obfuscation.
package pathctx

import (
	"slices"
	"strings"
	"time"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/dataflow"
)

// Default extraction bounds from the paper (Section III-B).
const (
	DefaultMaxLength = 12
	DefaultMaxWidth  = 4
	// DefaultMaxPaths caps the number of contexts per script so extraction
	// stays tractable on large files; sampling is deterministic.
	DefaultMaxPaths = 1200
)

// Options configures extraction.
type Options struct {
	MaxLength int
	MaxWidth  int
	MaxPaths  int
	// UseDataFlow selects the enhanced AST (true, the paper's default) or
	// the regular AST ablation of Table IV (false): with it disabled every
	// leaf is abstracted and no concrete values survive.
	UseDataFlow bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		MaxLength:   DefaultMaxLength,
		MaxWidth:    DefaultMaxWidth,
		MaxPaths:    DefaultMaxPaths,
		UseDataFlow: true,
	}
}

// Path is one extracted path context.
type Path struct {
	// Source and Target are the (possibly abstracted) leaf values.
	Source, Target string
	// Nodes is the sequence of AST node-type names along the path,
	// including both leaf node types.
	Nodes []string
}

// String renders the context in the paper's "<xs, n1...nk, xt>" spirit,
// with components joined by commas and node types by spaces.
func (p Path) String() string {
	return p.Source + "," + strings.Join(p.Nodes, " ") + "," + p.Target
}

// FNV-1a parameters (FNV-0 offset basis and 64-bit prime). The hashes are
// computed inline over string bytes rather than through hash/fnv: the
// stdlib constructor heap-allocates a hasher per call and the Write
// interface forces a []byte conversion per component, which dominated the
// allocation profile of the detect hot path. The byte sequences fed in are
// identical to the previous hash/fnv implementation, so every hash value —
// and therefore every vocabulary bucket — is unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds the bytes of s into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvByte folds one separator byte into h.
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// Hash returns a stable 64-bit hash of the full context, used by the
// embedding model's hashed vocabulary.
func (p Path) Hash() uint64 {
	h := fnvString(fnvOffset64, p.Source)
	h = fnvByte(h, 0)
	for _, n := range p.Nodes {
		h = fnvString(h, n)
		h = fnvByte(h, 1)
	}
	return fnvString(h, p.Target)
}

// ComponentHashes returns stable hashes of the context's three components:
// source value, node-type sequence, and target value. The embedding model
// sums the component embeddings, which realises the paper's requirement
// that "two paths with data dependency will have the same value in their
// triplets, and the vectors obtained in the embedding process will be
// closer": shared values or shared structure directly translate into vector
// proximity.
func (p Path) ComponentHashes() (source, structure, target uint64) {
	source = fnvString(fnvString(fnvOffset64, "src:"), p.Source)
	structure = fnvString(fnvOffset64, "nodes:")
	for _, n := range p.Nodes {
		structure = fnvByte(fnvString(structure, n), 1)
	}
	target = fnvString(fnvString(fnvOffset64, "tgt:"), p.Target)
	return source, structure, target
}

// Extract parses nothing: it takes an already-parsed program, runs the
// data-flow analysis when enabled, and returns the path contexts.
//
// prog must be a tree, as the parser produces: no node may appear twice.
// Leaves are related through the depth at which the traversal turns from
// one to the next, which identifies their lowest common ancestor only when
// every node has one parent.
func Extract(prog *ast.Program, opts Options) []Path {
	paths, _ := ExtractTimed(prog, opts)
	return paths
}

// Timing breaks one extraction into its two phases so the observability
// layer can attribute data-flow analysis separately from path traversal —
// the paper's Table VIII distinguishes exactly these costs.
type Timing struct {
	// DataFlow is the enhanced-AST data-dependency analysis time (zero
	// when UseDataFlow is disabled).
	DataFlow time.Duration
	// Traversal is the leaf collection, pair enumeration, and sampling
	// time.
	Traversal time.Duration
}

// ExtractTimed is Extract with a per-phase timing breakdown.
func ExtractTimed(prog *ast.Program, opts Options) ([]Path, Timing) {
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

	leaves, adj := collectLeaves(prog, info, types, opts.MaxLength+1)
	// Pair enumeration is quadratic in the leaf count, so heavily
	// obfuscated files (hundreds of kilobytes, tens of thousands of leaves)
	// must be down-sampled before enumeration — the same "limit the number
	// of extracted paths" requirement the paper states, applied one level
	// earlier so the cost bound holds too.
	if opts.MaxPaths > 0 {
		maxLeaves := 4 * opts.MaxPaths
		if len(leaves) > maxLeaves {
			idx := strideIndices(len(leaves), maxLeaves)
			kept := make([]leaf, len(idx))
			keptAdj := make([]int, len(idx)-1)
			for i, j := range idx {
				kept[i] = leaves[j]
				if i+1 < len(idx) {
					// The LCA of two leaves is the shallowest LCA of the
					// adjacent pairs between them.
					keptAdj[i] = slices.Min(adj[j:idx[i+1]])
				}
			}
			leaves, adj = kept, keptAdj
		}
	}
	paths := enumerate(leaves, adj, opts)
	tm.Traversal = time.Since(t0)
	return paths, tm
}

// strideIndices returns n evenly spaced indices over [0, total).
func strideIndices(total, n int) []int {
	out := make([]int, 0, n)
	stride := float64(total) / float64(n)
	pos := 0.0
	for len(out) < n {
		idx := int(pos)
		if idx >= total {
			break
		}
		out = append(out, idx)
		pos += stride
	}
	return out
}

// leaf is an AST leaf annotated with its abstracted value and the bottom
// of its chain of ancestors. Chain index 0 is the root and depth-1 the leaf
// itself; the leaf keeps the node types and child indexes of only the
// bottom window of that chain, because a path of at most MaxLength nodes
// never climbs above it.
type leaf struct {
	value string
	depth int
	// typs[k] is the node type at chain index lo+k, where lo =
	// depth-len(typs); the last entry is the leaf's own type.
	typs []string
	// idxs[k] is the index of chain node lo+k+1 among the children of chain
	// node lo+k.
	idxs []int
}

// typ returns the node type at chain index d (d >= lo).
func (l *leaf) typ(d int) string { return l.typs[d-l.depth+len(l.typs)] }

// childIdx returns the child index below chain index d (lo <= d < depth-1).
func (l *leaf) childIdx(d int) int { return l.idxs[d-l.depth+len(l.typs)] }

// maxWalkDepth bounds AST traversal depth so programmatically built trees
// deeper than anything the parser's own recursion limit admits cannot
// overflow the stack; leaves below the cap are simply not extracted.
const maxWalkDepth = 4096

// Leaf windows and path node sequences are carved out of shared blocks
// instead of being allocated per leaf / per pair, which amortizes thousands
// of small allocations per extraction into a handful of block allocations.
// Blocks start at arenaMinBlock elements and double up to arenaBlock, so a
// small script does not pay for a full block. Blocks are never reused
// across Extract calls — retained Paths alias them.
const (
	arenaMinBlock = 64
	arenaBlock    = 4096
)

// arena hands out capacity-clamped slices carved from shared blocks.
type arena[T any] struct {
	free []T
	next int // size of the next block
}

func (a *arena[T]) alloc(n int) []T {
	if len(a.free) < n {
		a.next = min(max(2*a.next, arenaMinBlock), arenaBlock)
		a.free = make([]T, max(n, a.next))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// collectLeaves gathers all leaves in source order, each with the bottom
// window entries of its chain, plus adj: adj[j] is the chain index of the
// lowest common ancestor of leaves j and j+1, which in a depth-first walk
// of a tree is one less than the shallowest stack depth the walk unwinds
// to between them. Window copies come from shared arenas, not per-leaf
// makes.
func collectLeaves(prog *ast.Program, info *dataflow.Info, types map[string]string, window int) (out []leaf, adj []int) {
	var typs []string
	var idxs []int
	var strs arena[string]
	var ints arena[int]
	// low is the shallowest stack depth since the last leaf was kept.
	low := 0

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if len(typs) >= maxWalkDepth {
			return
		}
		typs = append(typs, n.Type())
		kids := n.Children()
		if len(kids) == 0 {
			if val := leafValue(n, info, types); val != "" {
				d := len(typs)
				if len(out) > 0 {
					adj = append(adj, low-1)
				}
				low = d
				w := min(d, window)
				ct := strs.alloc(w)
				copy(ct, typs[d-w:])
				ci := ints.alloc(w - 1)
				copy(ci, idxs[d-w:])
				out = append(out, leaf{value: val, depth: d, typs: ct, idxs: ci})
			}
		}
		for i, k := range kids {
			idxs = append(idxs, i)
			walk(k)
			idxs = idxs[:len(idxs)-1]
		}
		typs = typs[:len(typs)-1]
		low = min(low, len(typs))
	}
	walk(prog)
	return out, adj
}

// leafValue computes the path-context value for a leaf: a concrete value for
// data-dependent identifiers, a type indicator otherwise.
func leafValue(n ast.Node, info *dataflow.Info, types map[string]string) string {
	switch v := n.(type) {
	case *ast.Identifier:
		if info != nil && info.HasDependency(v) {
			return v.Name
		}
		if t, ok := types[v.Name]; ok {
			return "@var_" + t
		}
		return "@var_any"
	case *ast.Literal:
		switch v.Kind {
		case ast.LiteralString:
			return "@var_str"
		case ast.LiteralNumber:
			if v.NumVal == float64(int64(v.NumVal)) {
				return "@var_int"
			}
			return "@var_num"
		case ast.LiteralBool:
			return "@var_bool"
		case ast.LiteralNull:
			return "@var_null"
		case ast.LiteralRegExp:
			return "@var_regex"
		}
		return "@var_any"
	case *ast.ThisExpression:
		return "this"
	case *ast.EmptyStatement, *ast.DebuggerStatement:
		return n.Type()
	case *ast.BreakStatement, *ast.ContinueStatement:
		return n.Type()
	default:
		return n.Type()
	}
}

// inferTypes derives a coarse static type for each variable name from its
// declarations and assignments (last write wins; conflicting kinds degrade
// to "any").
func inferTypes(prog *ast.Program) map[string]string {
	types := make(map[string]string)
	set := func(name, t string) {
		if prev, ok := types[name]; ok && prev != t {
			types[name] = "any"
			return
		}
		types[name] = t
	}
	ast.Walk(prog, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.VariableDeclarator:
			if v.Init != nil {
				set(v.ID.Name, exprType(v.Init))
			}
		case *ast.AssignmentExpression:
			if id, ok := v.Left.(*ast.Identifier); ok && v.Operator == "=" {
				set(id.Name, exprType(v.Right))
			}
		case *ast.FunctionDeclaration:
			set(v.ID.Name, "fun")
		}
		return true
	})
	return types
}

// exprType maps an initializer expression to a coarse type tag.
func exprType(e ast.Expression) string {
	switch v := e.(type) {
	case *ast.Literal:
		switch v.Kind {
		case ast.LiteralString:
			return "str"
		case ast.LiteralNumber:
			if v.NumVal == float64(int64(v.NumVal)) {
				return "int"
			}
			return "num"
		case ast.LiteralBool:
			return "bool"
		case ast.LiteralNull:
			return "null"
		case ast.LiteralRegExp:
			return "regex"
		}
	case *ast.ArrayExpression:
		return "arr"
	case *ast.ObjectExpression:
		return "obj"
	case *ast.FunctionExpression:
		return "fun"
	case *ast.NewExpression:
		return "obj"
	case *ast.BinaryExpression:
		if v.Operator == "+" {
			lt, rt := exprType(v.Left), exprType(v.Right)
			if lt == "str" || rt == "str" {
				return "str"
			}
			if lt == "int" && rt == "int" {
				return "int"
			}
			return "num"
		}
		switch v.Operator {
		case "==", "!=", "===", "!==", "<", ">", "<=", ">=", "in", "instanceof":
			return "bool"
		}
		return "num"
	case *ast.LogicalExpression:
		return "bool"
	case *ast.UnaryExpression:
		switch v.Operator {
		case "!":
			return "bool"
		case "typeof":
			return "str"
		case "-", "+", "~":
			return "num"
		}
	case *ast.CallExpression, *ast.MemberExpression:
		return "any"
	}
	return "any"
}

// enumerate produces leaf pairs whose connecting path satisfies the length
// and width bounds, stopping once far more paths than the final sample
// needs have been found, and builds an even-stride sample of MaxPaths of
// them. Pairs are walked twice — once to count them, once to build the
// sampled ones — because at the default bounds 95% of the qualifying pairs
// are discarded by the sampler, so neither they nor a list of them are
// ever materialized.
func enumerate(leaves []leaf, adj []int, opts Options) []Path {
	if len(leaves) < 2 {
		return nil
	}
	budget := -1
	if opts.MaxPaths > 0 {
		budget = 20 * opts.MaxPaths
	}
	total := 0
	eachPair(leaves, adj, opts, func(int, int, int) bool {
		total++
		return total != budget
	})
	n := total
	if opts.MaxPaths > 0 && n > opts.MaxPaths {
		n = opts.MaxPaths
	}
	// Keep pair ordinals int(k*stride) for k = 0, 1, ..., accumulated in
	// floating point; with n == total that is every pair.
	out := make([]Path, 0, n)
	var nodes arena[string]
	stride := float64(total) / float64(n)
	pos, ord := 0.0, 0
	eachPair(leaves, adj, opts, func(a, b, lca int) bool {
		if ord == int(pos) {
			out = append(out, build(&leaves[a], &leaves[b], lca, &nodes))
			pos += stride
		}
		ord++
		return len(out) < n && int(pos) < total
	})
	return out
}

// eachPair calls visit(a, b, lca) for each qualifying leaf pair in
// enumeration order, with lca the pair's LCA chain index, until visit
// returns false.
func eachPair(leaves []leaf, adj []int, opts Options, visit func(a, b, lca int) bool) {
	for i := range leaves {
		a := &leaves[i]
		lca := a.depth // running LCA index of (i, j); shrinks as j advances
		for j := i + 1; j < len(leaves); j++ {
			lca = min(lca, adj[j-1])
			// The upward half of the path only grows as j advances (lca is
			// non-increasing); once it cannot fit MaxLength even with the
			// shortest possible downward half, no later j qualifies either.
			if a.depth-lca+1 > opts.MaxLength {
				break
			}
			if fits(a, &leaves[j], lca, opts) && !visit(i, j, lca) {
				return
			}
		}
	}
}

// fits reports whether the path context between two leaves satisfies the
// length and width bounds. lca is the pair's LCA chain index.
func fits(a, b *leaf, lca int, opts Options) bool {
	// A leaf that *is* the LCA makes a degenerate path (one endpoint an
	// ancestor of the other); both endpoints of a path context must be
	// distinct leaves.
	if lca >= a.depth-1 || lca >= b.depth-1 {
		return false
	}
	// Length: nodes up from a's leaf to LCA plus down to b's leaf, counting
	// both leaf nodes once each. Checked before width, so the child
	// indexes read below lie inside both leaves' windows.
	upLen := a.depth - 1 - lca   // edges from a-leaf up to LCA
	downLen := b.depth - 1 - lca // edges from LCA down to b-leaf
	if upLen+downLen+1 > opts.MaxLength {
		return false
	}
	// Width: distance of the child indices immediately below the LCA.
	width := b.childIdx(lca) - a.childIdx(lca)
	if width < 0 {
		width = -width
	}
	return width <= opts.MaxWidth
}

// build constructs the path context of a qualifying pair (fits already
// checked). The node sequence is carved from the shared arena.
func build(a, b *leaf, lca int, blocks *arena[string]) Path {
	k := (a.depth - 1 - lca) + (b.depth - 1 - lca) + 1
	nodes := blocks.alloc(k)[:0]
	for d := a.depth - 1; d >= lca; d-- {
		nodes = append(nodes, a.typ(d))
	}
	for d := lca + 1; d < b.depth; d++ {
		nodes = append(nodes, b.typ(d))
	}
	return Path{Source: a.value, Target: b.value, Nodes: nodes}
}
