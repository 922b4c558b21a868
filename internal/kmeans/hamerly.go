package kmeans

import (
	"context"
	"math"
	"sync/atomic"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// boundSlack inflates the upper bound in every pruning comparison. The
// Hamerly bounds are maintained with rounded float64 arithmetic (sqrt of a
// rounded squared distance, accumulated center movements), so a bound can
// sit a few ulps on the wrong side of the exact value; comparing against a
// bound inflated by 1e-12 relative makes the prune decision conservative —
// a borderline point falls through to the full Lloyd scan instead of being
// (mis)pruned — which is what keeps the assignments byte-identical to
// Lloyd. See DESIGN.md "Index & pruning invariants".
const boundSlack = 1 + 1e-12

// runOnceHamerly is Lloyd's iteration with Hamerly's triangle-inequality
// pruning (Hamerly 2010): per point it keeps an upper bound u on the distance to
// the assigned center and a lower bound l on the distance to the
// second-closest center. When u < max(s(a)/2, l) — with s(a) the distance
// from the assigned center to its nearest other center — no other center
// can be closer and the point keeps its label without touching any center;
// otherwise u is tightened with one exact distance and, if the test still
// fails, the point falls back to the exact Lloyd scan (same iteration
// order, same strict <, same squared-distance comparisons, the tightened
// distance standing in for its old center's), which also refreshes both
// bounds. Labels, iteration count, reassignment counts, and the recorded
// SSE trajectory are byte-identical to the plain full-scan iteration, kept
// as the test oracle runOnce (lloyd_test.go); only
// kmeans.distance_computations differs — that counter is the point.
func runOnceHamerly(ctx context.Context, points [][]float64, k, maxIter int, centers [][]float64, workers int, rec *obs.Collector) (*Result, error) {
	n, d := len(points), len(points[0])
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	upper := make([]float64, n)   // upper bound: distance to assigned center
	lower := make([]float64, n)   // lower bound: distance to second-closest center
	nearest := make([]float64, n) // exact squared distance to the assigned center (telemetry)
	sHalf := make([]float64, k)   // half distance from each center to its nearest other center
	move := make([]float64, k)    // per-center movement of the last update
	stable := make([]bool, k)     // center's bits unchanged by the last update
	var nChanged, nDist int64
	var interrupted error
	iter := 0
	trackSSE := rec != nil
	for ; iter < maxIter; iter++ {
		// s(c)/2 for the center-separation test; these k(k-1)/2 exact
		// distances are part of the algorithm's work and counted as such.
		// The first pass labels every point by a full scan and reads none.
		nChanged, nDist = 0, 0
		if iter > 0 {
			for c := range sHalf {
				sHalf[c] = math.Inf(1)
			}
			for a := 0; a < k; a++ {
				for b := a + 1; b < k; b++ {
					dd := dist.Euclidean(centers[a], centers[b])
					if h := dd / 2; h < sHalf[a] {
						sHalf[a] = h
					}
					if h := dd / 2; h < sHalf[b] {
						sHalf[b] = h
					}
				}
			}
			nDist = int64(k) * int64(k-1) / 2
		}
		// Assignment, sharded over points exactly like Lloyd's: every write
		// is to the shard's own labels/bounds/nearest slots, so the result
		// is byte-identical for any worker count.
		parallel.For(n, workers, func(lo, hi int) {
			var changed, dcount int64
			for i := lo; i < hi; i++ {
				p := points[i]
				a := labels[i]
				var aSq float64 // exact squared distance to center a, once tightened
				if a >= 0 {
					m := lower[i]
					if sHalf[a] > m {
						m = sHalf[a]
					}
					if upper[i]*boundSlack < m {
						if trackSSE && !stable[a] {
							// Exact distance for the SSE trajectory only; not
							// part of the assignment work, so not counted.
							// Under a stable center nearest[i] already holds
							// it: last pass wrote it against the same bits.
							nearest[i] = dist.SqEuclidean(p, centers[a])
						}
						continue
					}
					aSq = dist.SqEuclidean(p, centers[a])
					dcount++
					upper[i] = math.Sqrt(aSq)
					if upper[i]*boundSlack < m {
						if trackSSE {
							nearest[i] = aSq
						}
						continue
					}
				}
				// Full scan — the exact comparisons of Lloyd's, so the argmin
				// (including index-order tie-breaks) matches Lloyd.
				bestC := 0
				bestSq, secondSq := math.Inf(1), math.Inf(1)
				for c, ctr := range centers {
					sq := aSq
					if c != a {
						sq = dist.SqEuclidean(p, ctr)
						dcount++
					}
					if sq < bestSq {
						secondSq = bestSq
						bestC, bestSq = c, sq
					} else if sq < secondSq {
						secondSq = sq
					}
				}
				if labels[i] != bestC {
					labels[i] = bestC
					changed++
				}
				upper[i] = math.Sqrt(bestSq)
				lower[i] = math.Sqrt(secondSq)
				if trackSSE {
					nearest[i] = bestSq
				}
			}
			if changed > 0 {
				atomic.AddInt64(&nChanged, changed)
			}
			if dcount > 0 {
				atomic.AddInt64(&nDist, dcount)
			}
		})
		if rec != nil {
			var iterSSE float64
			for _, dd := range nearest {
				iterSSE += dd
			}
			rec.Count("kmeans.iterations", 1)
			rec.Count("kmeans.reassignments", nChanged)
			rec.Count("kmeans.distance_computations", nDist)
			rec.Observe("kmeans.sse", iter, iterSSE)
		}
		if nChanged == 0 {
			break
		}
		next := recomputeCenters(points, labels, k, d, centers, rec)
		// Bound maintenance: the assigned center's movement loosens the
		// upper bound, the largest movement of any OTHER center loosens the
		// lower bound. Serial on purpose — adding a parallel dispatch here
		// would drift the parallel.* work counters away from Lloyd's.
		maxMove, secondMove, argMax := 0.0, 0.0, -1
		for c := range next {
			stable[c] = sameBits(centers[c], next[c])
			move[c] = dist.Euclidean(centers[c], next[c])
			if move[c] > maxMove {
				secondMove = maxMove
				maxMove, argMax = move[c], c
			} else if move[c] > secondMove {
				secondMove = move[c]
			}
		}
		for i := range labels {
			a := labels[i]
			upper[i] += move[a]
			mm := maxMove
			if a == argMax {
				mm = secondMove
			}
			lower[i] -= mm
		}
		centers = next
		// Iteration-boundary cancellation: labels are fully assigned here,
		// so the partial model is structurally valid.
		if err := ctx.Err(); err != nil {
			interrupted = err
			iter++
			break
		}
	}
	// Report the SSE of the returned (Clustering, Centers) pair: when the
	// loop exhausts MaxIter the centers were recomputed after the last
	// assignment, so the in-loop sum (measured against the previous
	// centers) would overstate the cost of the model actually returned.
	var sse float64
	for i, p := range points {
		sse += dist.SqEuclidean(p, centers[labels[i]])
	}
	return &Result{
		Clustering: core.NewClustering(labels),
		Centers:    centers,
		SSE:        sse,
		Iterations: iter,
	}, interrupted
}

// sameBits reports whether a and b hold the same float64 bit patterns. A
// zero movement is not enough: a shift below about 1e-154 squares to 0.
func sameBits(a, b []float64) bool {
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}
