package kmeans

import (
	"math"
	"sync/atomic"

	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// AssignPruned assigns every point to its nearest center in one pass,
// pruning candidate centers with the same center-separation lemma the
// Hamerly iteration uses: once the best-so-far center b is at distance u,
// any center c with d(b, c) ≥ 2u cannot be strictly closer (triangle
// inequality), so its exact distance is never computed. The k(k−1)/2
// center–center distances are computed once up front and counted as work.
//
// Labels are byte-identical to a full Assign scan: the scan keeps the
// strict-< index-order argmin, and a center is only skipped when it provably
// cannot win that comparison — with the bound inflated by boundSlack so
// rounded center–center distances stay conservative (a borderline center
// falls through to the exact computation). The returned sq slice holds the
// exact squared distance of each point to its assigned center — the
// streaming layer's SSE terms and D²-reseed weights.
//
// The point loop is sharded over internal/parallel with per-slot writes
// only, so labels and sq are identical for any worker count; only the
// kmeans.distance_computations total reflects how much the pruning saved.
func AssignPruned(points, centers [][]float64, workers int, rec *obs.Collector) (labels []int, sq []float64) {
	n, k := len(points), len(centers)
	labels = make([]int, n)
	sq = make([]float64, n)
	// Pairwise center separations for the pruning test.
	cc := make([][]float64, k)
	for a := range cc {
		cc[a] = make([]float64, k)
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			dd := dist.Euclidean(centers[a], centers[b])
			cc[a][b], cc[b][a] = dd, dd
		}
	}
	var nDist int64
	parallel.For(n, workers, func(lo, hi int) {
		var dcount int64
		for i := lo; i < hi; i++ {
			p := points[i]
			bestC := 0
			bestSq := dist.SqEuclidean(p, centers[0])
			bestU := -1.0 // sqrt(bestSq), computed lazily at the first prune test
			dcount++
			for c := 1; c < k; c++ {
				if bestU < 0 {
					bestU = math.Sqrt(bestSq)
				}
				if cc[bestC][c] >= 2*bestU*boundSlack {
					continue // cannot be strictly closer than the current best
				}
				d2 := dist.SqEuclidean(p, centers[c])
				dcount++
				if d2 < bestSq {
					bestC, bestSq = c, d2
					bestU = -1
				}
			}
			labels[i] = bestC
			sq[i] = bestSq
		}
		if dcount > 0 {
			atomic.AddInt64(&nDist, dcount)
		}
	})
	rec.Count("kmeans.distance_computations", nDist+int64(k)*int64(k-1)/2)
	return labels, sq
}
