package pathctx

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obfuscate"
)

// oraclePrograms parses the load benchmark's script pools: the pristine
// corpus clean and through each of the paper's four obfuscators, raw and
// deobfuscated, plus the crawl and hot-set corpora. -short shrinks every
// pool to a tenth. Scripts that do not parse are skipped.
func oraclePrograms(tb testing.TB) map[string]*ast.Program {
	tb.Helper()
	scale := func(n int) int {
		if testing.Short() {
			return (n + 9) / 10
		}
		return n
	}
	out := map[string]*ast.Program{}
	add := func(name, src string) {
		if prog, err := parser.Parse(src); err == nil {
			out[name] = prog
		}
	}
	pristine := corpus.Generate(corpus.Config{Benign: scale(175), Malicious: scale(175), Seed: 1102, Pristine: true})
	reg := obfuscate.Registry(1103)
	pipe := deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true})
	for i, s := range pristine {
		add("clean/"+strconv.Itoa(i), s.Source)
		for _, tool := range obfuscate.PaperOrder() {
			src, err := reg[tool].Obfuscate(s.Source)
			if err != nil {
				continue
			}
			add(tool+"/"+strconv.Itoa(i), src)
			if norm, _, err := pipe.Normalize(context.Background(), src, parser.Limits{}); err == nil {
				add(tool+"/normalized/"+strconv.Itoa(i), norm)
			}
		}
	}
	for name, cfg := range map[string]corpus.Config{
		"crawl": {Benign: scale(2470), Malicious: scale(130), Seed: 1105},
		"hot":   {Benign: scale(243), Malicious: scale(13), Seed: 1104},
	} {
		for i, s := range corpus.Generate(cfg) {
			add(name+"/"+strconv.Itoa(i), s.Source)
		}
	}
	// One script with more than 4×DefaultMaxPaths leaves, so leaf
	// down-sampling runs under the default options too.
	var sb strings.Builder
	sb.WriteString("var big = [")
	for i := 0; i < 6*DefaultMaxPaths; i++ {
		sb.WriteString("x" + strconv.Itoa(i%7) + ", ")
	}
	sb.WriteString("0];\nx1 = big[3] + x2;")
	add("wide", sb.String())
	return out
}

// TestExtractMatchesReference pins Extract, with windowed leaf chains and
// count-then-select sampling, to the full-chain reference extractor: the
// same paths in the same order on every benchmark pool, under the default
// options, narrower bounds, and unlimited paths without data flow. Paths
// are compared field by field, which is stricter than comparing their
// String forms and allocates nothing.
func TestExtractMatchesReference(t *testing.T) {
	progs := oraclePrograms(t)
	for _, opts := range []Options{
		DefaultOptions(),
		{MaxLength: 8, MaxWidth: 3, MaxPaths: 400},
		{MaxLength: DefaultMaxLength, MaxWidth: DefaultMaxWidth, MaxPaths: 0},
	} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			t.Parallel()
			sampledLeaves := false
			for name, prog := range progs {
				got, _ := ExtractTimed(prog, opts)
				want, _ := refExtract(prog, opts)
				if len(got) != len(want) {
					t.Fatalf("%s: %d paths, reference %d", name, len(got), len(want))
				}
				for i, g := range got {
					w := want[i]
					if g.Source != w.Source || g.Target != w.Target || !slices.Equal(g.Nodes, w.Nodes) {
						t.Fatalf("%s: path %d = %s, reference %s", name, i, g, w)
					}
				}
				if opts.MaxPaths > 0 && len(refCollectLeaves(prog, nil, inferTypes(prog))) > 4*opts.MaxPaths {
					sampledLeaves = true
				}
			}
			if opts.MaxPaths > 0 && !sampledLeaves {
				t.Errorf("no program has more than %d leaves; leaf down-sampling went untested", 4*opts.MaxPaths)
			}
		})
	}
}
