package pathctx

import (
	"hash/fnv"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
)

// refHash reimplements Path.Hash through the stdlib hasher, the
// implementation the inlined FNV-1a replaced. The vocabulary buckets of a
// trained model depend on these values, so the inline version must agree
// byte for byte.
func refHash(p Path) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.Source))
	h.Write([]byte{0})
	for _, n := range p.Nodes {
		h.Write([]byte(n))
		h.Write([]byte{1})
	}
	h.Write([]byte(p.Target))
	return h.Sum64()
}

// refComponentHashes is the stdlib-hasher reference for ComponentHashes.
func refComponentHashes(p Path) (uint64, uint64, uint64) {
	hs := fnv.New64a()
	hs.Write([]byte("src:"))
	hs.Write([]byte(p.Source))
	hn := fnv.New64a()
	hn.Write([]byte("nodes:"))
	for _, n := range p.Nodes {
		hn.Write([]byte(n))
		hn.Write([]byte{1})
	}
	ht := fnv.New64a()
	ht.Write([]byte("tgt:"))
	ht.Write([]byte(p.Target))
	return hs.Sum64(), hn.Sum64(), ht.Sum64()
}

// hashProbes covers the edge shapes: empty components, empty node lists,
// separator bytes appearing inside values, and multi-byte UTF-8.
var hashProbes = []Path{
	{},
	{Source: "a", Target: "b"},
	{Source: "@var_str", Target: "decode", Nodes: []string{"Literal", "CallExpression", "Identifier"}},
	{Source: "x\x00y", Target: "p\x01q", Nodes: []string{"", "\x01", "\x00"}},
	{Source: "日本語", Target: "émoji🙂", Nodes: []string{"Identifiér"}},
}

func TestInlineHashMatchesStdlibFNV(t *testing.T) {
	for i, p := range hashProbes {
		if got, want := p.Hash(), refHash(p); got != want {
			t.Errorf("probe %d: Hash = %#x, stdlib fnv = %#x", i, got, want)
		}
		gs, gn, gt := p.ComponentHashes()
		ws, wn, wt := refComponentHashes(p)
		if gs != ws || gn != wn || gt != wt {
			t.Errorf("probe %d: ComponentHashes = %#x/%#x/%#x, stdlib = %#x/%#x/%#x",
				i, gs, gn, gt, ws, wn, wt)
		}
	}
}

// TestInlineHashMatchesOnRealPaths runs the equivalence over every path of
// a real extraction, not just synthetic probes.
func TestInlineHashMatchesOnRealPaths(t *testing.T) {
	prog, err := parser.Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	paths := Extract(prog, DefaultOptions())
	if len(paths) == 0 {
		t.Fatal("no paths extracted")
	}
	for i, p := range paths {
		if p.Hash() != refHash(p) {
			t.Fatalf("path %d: full hash diverged from stdlib fnv", i)
		}
		gs, gn, gt := p.ComponentHashes()
		ws, wn, wt := refComponentHashes(p)
		if gs != ws || gn != wn || gt != wt {
			t.Fatalf("path %d: component hashes diverged from stdlib fnv", i)
		}
	}
}

// TestPathsAreIndependentOfArena ensures the arena-backed node slices of
// different paths never alias: appending through one path's Nodes must not
// be possible (full-capacity slices), and values must stay intact.
func TestPathsAreIndependentOfArena(t *testing.T) {
	prog, err := parser.Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	paths := Extract(prog, DefaultOptions())
	if len(paths) < 2 {
		t.Fatal("need at least two paths")
	}
	for i, p := range paths {
		if len(p.Nodes) != cap(p.Nodes) {
			t.Fatalf("path %d: Nodes not capacity-clamped (len %d cap %d)",
				i, len(p.Nodes), cap(p.Nodes))
		}
	}
	before := paths[1].String()
	for j := range paths[0].Nodes {
		paths[0].Nodes[j] = "CLOBBERED"
	}
	if paths[1].String() != before {
		t.Fatal("mutating one path's Nodes corrupted a neighbour")
	}
}

// BenchmarkPathHash measures the component hashing of a realistic path set,
// the per-path cost the detect hot path pays to key the vocabulary.
func BenchmarkPathHash(b *testing.B) {
	prog, err := parser.Parse(sampleSrc)
	if err != nil {
		b.Fatal(err)
	}
	paths := Extract(prog, DefaultOptions())
	if len(paths) == 0 {
		b.Fatal("no paths")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc uint64
		for _, p := range paths {
			s, n, t := p.ComponentHashes()
			acc ^= s ^ n ^ t
		}
		if acc == 0 && len(paths) > 0 {
			_ = acc
		}
	}
}

// BenchmarkExtract measures full extractions (data flow + traversal +
// enumeration): of the small sample script, and of 40 obfuscated scripts
// per op.
func BenchmarkExtract(b *testing.B) {
	prog, err := parser.Parse(sampleSrc)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	b.Run("sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if paths := Extract(prog, opts); len(paths) == 0 {
				b.Fatal("no paths")
			}
		}
	})
	// The obfuscated leg mirrors the load benchmark's pool: pristine
	// scripts through the four obfuscators in turn.
	samples := corpus.Generate(corpus.Config{Benign: 20, Malicious: 20, Seed: 1102, Pristine: true})
	reg := obfuscate.Registry(1103)
	order := obfuscate.PaperOrder()
	var progs []*ast.Program
	for i, s := range samples {
		src, err := reg[order[i%len(order)]].Obfuscate(s.Source)
		if err != nil {
			continue
		}
		if prog, err := parser.Parse(src); err == nil {
			progs = append(progs, prog)
		}
	}
	b.Run("obfuscated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, prog := range progs {
				Extract(prog, opts)
			}
		}
	})
}
