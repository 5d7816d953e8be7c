package cluster

import (
	"math"
	"math/rand"
	"testing"

	"jsrevealer/internal/ml/linalg"
)

// assignPlain is Assign's definition: one SquaredDistance per centroid, in
// index order, keeping the first strictly smaller distance.
func assignPlain(centroids [][]float64, v []float64) int {
	best, bestD := -1, math.Inf(1)
	for i, c := range centroids {
		if d := linalg.SquaredDistance(c, v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TestAssignMatchesPlainLoop is a property test of the interleaved Assign
// against the plain loop: every k from 0 to 13 (most not multiples of 4),
// exact ties, NaN and ±Inf components in centroids and in v, and centroids
// shorter or longer than v must all pick the same index. The per-centroid
// distances are checked bit for bit too.
func TestAssignMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0}
	vec := func(n int) []float64 {
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			if rng.Intn(40) == 0 {
				x[j] = special[rng.Intn(len(special))]
			}
		}
		return x
	}
	for trial := 0; trial < 4000; trial++ {
		dim := 1 + rng.Intn(20)
		k := rng.Intn(14)
		cs := make([][]float64, k)
		for i := range cs {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				cs[i] = cs[rng.Intn(i)] // exact tie with an earlier centroid
			case rng.Intn(5) == 0:
				cs[i] = vec(rng.Intn(dim + 3)) // shorter or longer than v
			default:
				cs[i] = vec(dim)
			}
		}
		v := vec(dim)
		if got, want := Assign(cs, v), assignPlain(cs, v); got != want {
			t.Fatalf("trial %d (k=%d dim=%d): Assign = %d, plain loop = %d", trial, k, dim, got, want)
		}
		for i := 0; i+4 <= k; i += 4 {
			d0, d1, d2, d3 := squaredDistances4(cs[i:i+4], v)
			for j, d := range [4]float64{d0, d1, d2, d3} {
				want := linalg.SquaredDistance(cs[i+j], v)
				if math.Float64bits(d) != math.Float64bits(want) &&
					!(math.IsNaN(d) && math.IsNaN(want)) {
					t.Fatalf("trial %d centroid %d: distance %v, SquaredDistance %v", trial, i+j, d, want)
				}
			}
		}
	}
}

// TestAssignEdgeCases pins the documented results: no centroids and
// all-NaN distances give -1; ties go to the first index.
func TestAssignEdgeCases(t *testing.T) {
	v := []float64{1, 2}
	if got := Assign(nil, v); got != -1 {
		t.Errorf("no centroids: %d, want -1", got)
	}
	nan := []float64{math.NaN(), 0}
	if got := Assign([][]float64{nan, nan, nan, nan, nan}, v); got != -1 {
		t.Errorf("all NaN: %d, want -1", got)
	}
	c := []float64{0, 0}
	far := []float64{9, 9}
	if got := Assign([][]float64{far, far, c, far, c, c}, v); got != 2 {
		t.Errorf("ties: %d, want 2", got)
	}
}
