// Package cluster implements the clustering algorithms of the JSRevealer
// feature-extraction stage: Lloyd's K-Means, Bisecting K-Means (the paper's
// choice, which removes the initialization sensitivity of plain K-Means),
// and the SSE computation that drives the elbow-method curves of Figure 5.
package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"

	"jsrevealer/internal/ml/linalg"
	"jsrevealer/internal/par"
)

// parallelCutoff is the point count below which the assignment and seeding
// loops stay serial: goroutine fan-out costs more than it saves on small
// clusters (Bisecting K-Means recurses into many of those). Serial and
// parallel paths are bit-identical, so the cutoff never changes results.
const parallelCutoff = 256

// effectiveWorkers resolves a worker knob for n points: small inputs run
// serial, otherwise <= 0 means all CPUs.
func effectiveWorkers(workers, n int) int {
	if n < parallelCutoff {
		return 1
	}
	return par.Workers(workers)
}

// ErrNoData is returned when clustering is asked for more clusters than
// there are points, or for no points at all.
var ErrNoData = errors.New("cluster: not enough data points")

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids holds K centroid vectors.
	Centroids [][]float64
	// Assignments maps each input point to its centroid index.
	Assignments []int
	// SSE is the sum of squared distances of points to their centroids.
	SSE float64
}

// Sizes returns the number of points assigned to each centroid.
func (r *Result) Sizes() []int {
	sizes := make([]int, len(r.Centroids))
	for _, a := range r.Assignments {
		if a >= 0 && a < len(sizes) {
			sizes[a]++
		}
	}
	return sizes
}

// Assign returns the index of the closest centroid to v: the first on
// ties, -1 when there are no centroids or every distance is NaN. Distances
// are computed four centroids at a time so the four sums' additions overlap
// in the pipeline; each sum still adds its terms in SquaredDistance's order
// and the comparisons run in index order, so the result is exactly the
// plain loop's.
func Assign(centroids [][]float64, v []float64) int {
	best, bestD := -1, math.Inf(1)
	i := 0
	for ; i+4 <= len(centroids); i += 4 {
		d0, d1, d2, d3 := squaredDistances4(centroids[i:i+4:i+4], v)
		if d0 < bestD {
			best, bestD = i, d0
		}
		if d1 < bestD {
			best, bestD = i+1, d1
		}
		if d2 < bestD {
			best, bestD = i+2, d2
		}
		if d3 < bestD {
			best, bestD = i+3, d3
		}
	}
	for ; i < len(centroids); i++ {
		if d := linalg.SquaredDistance(centroids[i], v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// squaredDistances4 returns linalg.SquaredDistance(c[k], v) for the four
// centroids, bit for bit: the sums run side by side over the prefix all
// five vectors share, then each finishes its own tail in order.
func squaredDistances4(c [][]float64, v []float64) (d0, d1, d2, d3 float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	n := min(len(v), len(c0), len(c1), len(c2), len(c3))
	x := v[:n]
	a0, a1, a2, a3 := c0[:len(x)], c1[:len(x)], c2[:len(x)], c3[:len(x)]
	var s0, s1, s2, s3 float64
	for j, vj := range x {
		d0, d1, d2, d3 := a0[j]-vj, a1[j]-vj, a2[j]-vj, a3[j]-vj
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return sumTail(s0, c0, v, n), sumTail(s1, c1, v, n),
		sumTail(s2, c2, v, n), sumTail(s3, c3, v, n)
}

// sumTail continues SquaredDistance(c, v)'s sum s from index j.
func sumTail(s float64, c, v []float64, j int) float64 {
	for ; j < len(c) && j < len(v); j++ {
		d := c[j] - v[j]
		s += d * d
	}
	return s
}

// KMeans runs Lloyd's algorithm with K-Means++-style seeding, parallelizing
// large assignment passes over all CPUs (see KMeansWorkers — results are
// identical at any worker count).
func KMeans(points [][]float64, k int, seed int64, maxIter int) (*Result, error) {
	return KMeansWorkers(points, k, seed, maxIter, 0)
}

// KMeansWorkers is KMeans with an explicit worker bound (<= 0 means all
// CPUs) for the per-iteration assignment pass and the K-Means++ seeding
// distances — the O(n·k·d) dominators. Parallelism is a wall-clock knob
// only: each point's assignment is an independent function of the frozen
// centroids and centroid recomputation stays serial in index order, so the
// clustering is bit-identical at any worker count.
func KMeansWorkers(points [][]float64, k int, seed int64, maxIter, workers int) (*Result, error) {
	if k <= 0 || len(points) < k {
		return nil, ErrNoData
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	workers = effectiveWorkers(workers, len(points))
	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, rng, workers)
	assignments := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		var changedFlag int32
		par.For(workers, len(points), func(i int) {
			a := Assign(centroids, points[i])
			if a != assignments[i] {
				assignments[i] = a
				atomic.StoreInt32(&changedFlag, 1)
			}
		})
		changed := changedFlag != 0
		// Recompute centroids.
		dim := len(points[0])
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, p := range points {
			linalg.AddInPlace(sums[assignments[i]], p)
			counts[assignments[i]]++
		}
		for i := range sums {
			if counts[i] == 0 {
				// Re-seed an empty cluster with the farthest point.
				sums[i] = linalg.Clone(farthestPoint(points, centroids))
				counts[i] = 1
			} else {
				linalg.ScaleInPlace(sums[i], 1/float64(counts[i]))
			}
		}
		centroids = sums
		if !changed && iter > 0 {
			break
		}
	}
	res := &Result{Centroids: centroids, Assignments: assignments}
	res.SSE = SSE(points, centroids, assignments)
	return res, nil
}

// seedPlusPlus selects k initial centroids with D² weighting. The distance
// pass fans out over workers; the weighted draw sums serially in index
// order, so seeding is bit-identical at any worker count.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand, workers int) [][]float64 {
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, linalg.Clone(points[rng.Intn(len(points))]))
	dists := make([]float64, len(points))
	for len(centroids) < k {
		par.For(workers, len(points), func(i int) {
			d := math.Inf(1)
			for _, c := range centroids {
				if dd := linalg.SquaredDistance(points[i], c); dd < d {
					d = dd
				}
			}
			dists[i] = d
		})
		total := 0.0
		for _, d := range dists {
			total += d
		}
		if total == 0 {
			// All points identical: duplicate the first centroid.
			centroids = append(centroids, linalg.Clone(points[0]))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		chosen := len(points) - 1
		for i, d := range dists {
			acc += d
			if acc >= r {
				chosen = i
				break
			}
		}
		centroids = append(centroids, linalg.Clone(points[chosen]))
	}
	return centroids
}

func farthestPoint(points, centroids [][]float64) []float64 {
	best, bestD := points[0], -1.0
	for _, p := range points {
		d := math.Inf(1)
		for _, c := range centroids {
			if dd := linalg.SquaredDistance(p, c); dd < d {
				d = dd
			}
		}
		if d > bestD {
			best, bestD = p, d
		}
	}
	return best
}

// SSE computes the sum of squared errors of the assignment.
func SSE(points, centroids [][]float64, assignments []int) float64 {
	total := 0.0
	for i, p := range points {
		a := assignments[i]
		if a >= 0 && a < len(centroids) {
			total += linalg.SquaredDistance(p, centroids[a])
		}
	}
	return total
}

// BisectingKMeans repeatedly splits the cluster with the largest SSE using
// 2-means until k clusters exist. This is the algorithm the paper selects
// for its deterministic behaviour relative to plain K-Means. Large splits
// parallelize over all CPUs (see BisectingKMeansWorkers).
func BisectingKMeans(points [][]float64, k int, seed int64) (*Result, error) {
	return BisectingKMeansWorkers(points, k, seed, 0)
}

// BisectingKMeansWorkers is BisectingKMeans with an explicit worker bound
// (<= 0 means all CPUs) threaded into every 2-means split; the clustering
// is bit-identical at any worker count.
func BisectingKMeansWorkers(points [][]float64, k int, seed int64, workers int) (*Result, error) {
	if k <= 0 || len(points) < k {
		return nil, ErrNoData
	}
	type clusterSet struct {
		indices []int
		sse     float64
		center  []float64
	}
	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	root := clusterSet{indices: all}
	root.center = centroidOf(points, all)
	root.sse = sseOf(points, all, root.center)
	clusters := []clusterSet{root}

	for len(clusters) < k {
		// Pick the cluster with the largest SSE that can still be split.
		worst := -1
		for i, c := range clusters {
			if len(c.indices) < 2 {
				continue
			}
			if worst == -1 || c.sse > clusters[worst].sse {
				worst = i
			}
		}
		if worst == -1 {
			return nil, ErrNoData
		}
		target := clusters[worst]
		sub := make([][]float64, len(target.indices))
		for i, idx := range target.indices {
			sub[i] = points[idx]
		}
		// Try a few bisections and keep the best split, as the canonical
		// algorithm prescribes.
		var bestA, bestB []int
		bestSSE := math.Inf(1)
		for trial := 0; trial < 3; trial++ {
			res, err := KMeansWorkers(sub, 2, seed+int64(worst*31+trial), 30, workers)
			if err != nil {
				return nil, err
			}
			var ia, ib []int
			for i, a := range res.Assignments {
				if a == 0 {
					ia = append(ia, target.indices[i])
				} else {
					ib = append(ib, target.indices[i])
				}
			}
			if len(ia) == 0 || len(ib) == 0 {
				continue
			}
			if res.SSE < bestSSE {
				bestSSE = res.SSE
				bestA, bestB = ia, ib
			}
		}
		if bestA == nil {
			// Degenerate cluster (identical points): split arbitrarily.
			half := len(target.indices) / 2
			bestA = target.indices[:half]
			bestB = target.indices[half:]
		}
		ca := clusterSet{indices: bestA, center: centroidOf(points, bestA)}
		ca.sse = sseOf(points, bestA, ca.center)
		cb := clusterSet{indices: bestB, center: centroidOf(points, bestB)}
		cb.sse = sseOf(points, bestB, cb.center)
		clusters[worst] = ca
		clusters = append(clusters, cb)
	}

	res := &Result{
		Centroids:   make([][]float64, len(clusters)),
		Assignments: make([]int, len(points)),
	}
	for ci, c := range clusters {
		res.Centroids[ci] = c.center
		for _, idx := range c.indices {
			res.Assignments[idx] = ci
		}
		res.SSE += c.sse
	}
	return res, nil
}

func centroidOf(points [][]float64, indices []int) []float64 {
	if len(indices) == 0 {
		return nil
	}
	out := make([]float64, len(points[indices[0]]))
	for _, idx := range indices {
		linalg.AddInPlace(out, points[idx])
	}
	linalg.ScaleInPlace(out, 1/float64(len(indices)))
	return out
}

func sseOf(points [][]float64, indices []int, center []float64) float64 {
	total := 0.0
	for _, idx := range indices {
		total += linalg.SquaredDistance(points[idx], center)
	}
	return total
}

// ElbowCurve returns the SSE of Bisecting K-Means for every K in [kMin,
// kMax], the data behind Figure 5.
func ElbowCurve(points [][]float64, kMin, kMax int, seed int64) ([]float64, error) {
	if kMin < 1 || kMax < kMin {
		return nil, errors.New("cluster: invalid K range")
	}
	out := make([]float64, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		if len(points) < k {
			return out, nil
		}
		res, err := BisectingKMeans(points, k, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, res.SSE)
	}
	return out, nil
}
