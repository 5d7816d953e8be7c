package nn

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestPathLogitMatchesEmbed pins the per-path kernel against Embed on the
// golden fixture model: for every key, PathLogit over the raw key and over
// its canonical form yields the vector Embed returns, bit for bit, and the
// same logit either way.
func TestPathLogitMatchesEmbed(t *testing.T) {
	data, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with NN_WRITE_GOLDEN=1): %v", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	dim := m.Config().Dim
	pre, v, cv := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	unk := 0
	for si, keys := range goldenKeySets(m.Config()) {
		embs := m.Embed(keys)
		for i, key := range keys {
			ck := m.CanonicalKey(key)
			if ck != key {
				unk++
			}
			logit := m.PathLogit(key, pre, v)
			clogit := m.PathLogit(ck, pre, cv)
			if math.Float64bits(logit) != math.Float64bits(clogit) {
				t.Errorf("set %d path %d: canonical logit %v, raw %v", si, i, clogit, logit)
			}
			for j := range v {
				want := math.Float64bits(embs[i].Vector[j])
				if math.Float64bits(v[j]) != want || math.Float64bits(cv[j]) != want {
					t.Fatalf("set %d path %d dim %d: raw %v canonical %v, Embed %v",
						si, i, j, v[j], cv[j], embs[i].Vector[j])
				}
			}
		}
	}
	if unk == 0 {
		t.Fatal("no golden key has an out-of-vocabulary component; canonicalization untested")
	}
}

// TestCanonicalKeyCollapsesUNK: out-of-vocabulary components collapse to
// one marker per slot, in-vocabulary ones stay, and an untrained model (no
// vocabulary yet) leaves keys alone.
func TestCanonicalKeyCollapsesUNK(t *testing.T) {
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := PathKey{Src: 500, Struct: 31, Tgt: 502}
	if got := m.CanonicalKey(raw); got != raw {
		t.Errorf("untrained CanonicalKey(%v) = %v, want unchanged", raw, got)
	}
	m.Train(syntheticSamples(cfg, 40, 7))
	a := m.CanonicalKey(PathKey{Src: 500, Struct: 31, Tgt: 502})
	b := m.CanonicalKey(PathKey{Src: 501, Struct: 31, Tgt: 503})
	if a != b || a.Src != unkIndex || a.Tgt != unkIndex || a.Struct != 31 {
		t.Errorf("CanonicalKey: %v and %v, want {%d 31 %d} for both", a, b, unkIndex, unkIndex)
	}
}
