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

// runOnce is Lloyd's iteration with plain full scans (n*k exact distances
// per iteration): the reference runOnceHamerly is pinned against. Drive it
// as RunContext drives the pruned path with run(ctx, points, cfg, runOnce).
func runOnce(ctx context.Context, points [][]float64, k, maxIter int, centers [][]float64, workers int, rec *obs.Collector) (*Result, error) {
	n, d := len(points), len(points[0])
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	nearest := make([]float64, n) // squared distance to the assigned center
	var nChanged int64
	var interrupted error
	iter := 0
	for ; iter < maxIter; iter++ {
		// Assignment, sharded over points. Each shard writes disjoint
		// labels[i]/nearest[i] entries; the SSE is NOT accumulated here but
		// summed over nearest in index order below, so the total is
		// byte-identical for every worker count.
		nChanged = 0
		parallel.For(n, workers, func(lo, hi int) {
			var changed int64
			for i := lo; i < hi; i++ {
				p := points[i]
				bestC, bestD := 0, math.Inf(1)
				for c, ctr := range centers {
					if dd := dist.SqEuclidean(p, ctr); dd < bestD {
						bestC, bestD = c, dd
					}
				}
				if labels[i] != bestC {
					labels[i] = bestC
					changed++
				}
				nearest[i] = bestD
			}
			if changed > 0 {
				atomic.AddInt64(&nChanged, changed)
			}
		})
		// Trajectory instrumentation, gated so the disabled path pays only
		// this nil check per iteration. The per-iteration SSE is the sum of
		// the freshly written nearest[] slots in index order (deterministic
		// for any worker count); it measures the assignment against the
		// centers that produced it.
		if rec != nil {
			var iterSSE float64
			for _, dd := range nearest {
				iterSSE += dd
			}
			rec.Count("kmeans.iterations", 1)
			rec.Count("kmeans.reassignments", nChanged)
			rec.Count("kmeans.distance_computations", int64(n)*int64(len(centers)))
			rec.Observe("kmeans.sse", iter, iterSSE)
		}
		if nChanged == 0 {
			break
		}
		centers = recomputeCenters(points, labels, k, d, centers, rec)
		// Iteration-boundary cancellation: labels are fully assigned here, so
		// the partial model below is structurally valid.
		if err := ctx.Err(); err != nil {
			interrupted = err
			iter++
			break
		}
	}
	// Report the SSE of the returned (Clustering, Centers) pair: when the
	// loop exhausts MaxIter the centers were recomputed after the last
	// assignment, so the in-loop sum (measured against the previous centers)
	// would overstate the cost of the model actually returned.
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
