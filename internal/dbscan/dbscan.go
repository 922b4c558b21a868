// Package dbscan implements density-based clustering (Ester et al. 1996)
// over a pluggable neighbourhood function. The abstraction matters here:
// SUBCLU runs DBSCAN inside candidate subspaces, and the multi-represented
// DBSCAN of Kailing et al. (2004a) swaps in union/intersection
// neighbourhoods over several data sources, so the core expansion loop must
// not assume a concrete distance.
package dbscan

import (
	"context"
	"errors"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// NeighborFunc returns the indices of all objects (including o itself) in
// the neighbourhood of object o.
type NeighborFunc func(o int) []int

// Config controls a run over points with a concrete distance.
type Config struct {
	Eps     float64
	MinPts  int
	Workers int // parallelism of the region queries; <=0 resolves via internal/parallel
}

// Run clusters points with plain DBSCAN under distance d. The ε-neighborhood
// of every object is precomputed concurrently up front — the region queries
// dominate the O(n²) cost and are independent per object — then the serial
// expansion loop consumes the precomputed lists, so the labeling is
// identical to a fully serial run. A nil d selects the Euclidean metric
// served by the uniform-grid spatial index (grid.go), which answers each
// region query from the 3^d adjacent cells instead of a full scan; the
// neighbor lists — and therefore the labeling — are identical to the
// linear Euclidean scan.
func Run(points [][]float64, d dist.Func, cfg Config) (*core.Clustering, error) {
	return RunContext(context.Background(), points, d, cfg)
}

// RunContext is Run with cancellation: the expansion loop polls ctx at each
// outer-object boundary and, when the context is done, labels every
// still-unvisited object Noise and returns the partial clustering wrapped
// in core.ErrInterrupted. With a background context the output is
// byte-identical to Run. Region-query counters land on the recorder
// resolved from ctx (falling back to the process default), matching where
// the expansion loop records, so per-run Collectors see both.
func RunContext(ctx context.Context, points [][]float64, d dist.Func, cfg Config) (*core.Clustering, error) {
	if len(points) == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.Eps <= 0 || cfg.MinPts <= 0 {
		return nil, errors.New("dbscan: Eps and MinPts must be positive")
	}
	nf := contextNeighbors(ctx, points, d, cfg)
	return RunGenericContext(ctx, len(points), nf, cfg.MinPts)
}

// contextNeighbors runs RunContext's neighbor precompute under its own
// dbscan.neighbors span, so traces name the region-query layer apart from
// the expansion loop's dbscan.run.
func contextNeighbors(ctx context.Context, points [][]float64, d dist.Func, cfg Config) NeighborFunc {
	rec := obs.From(ctx)
	_, end := obs.SpanCtx(ctx, rec, "dbscan.neighbors")
	defer end()
	if d == nil {
		return PrecomputeGridNeighbors(rec, points, cfg.Eps, cfg.Workers)
	}
	return precomputeNeighbors(rec, points, d, cfg.Eps, cfg.Workers)
}

func precomputeNeighbors(rec *obs.Collector, points [][]float64, d dist.Func, eps float64, workers int) NeighborFunc {
	n := len(points)
	nbs := make([][]int, n)
	parallel.Each(n, workers, func(o int) {
		var out []int
		for i, p := range points {
			if d(points[o], p) <= eps {
				out = append(out, i)
			}
		}
		nbs[o] = out
	})
	// One O(n)-cost region query ran per object; count them as a batch so
	// the per-object fast path stays untouched.
	rec.Count("dbscan.region_queries", int64(n))
	return func(o int) []int { return nbs[o] }
}

// EpsNeighbors builds the standard epsilon-ball neighbourhood function.
// Unlike the precomputed lists of RunContext it scans on every call, so
// each invocation counts as one region query against the process-default
// recorder.
func EpsNeighbors(points [][]float64, d dist.Func, eps float64) NeighborFunc {
	return func(o int) []int {
		obs.Default().Count("dbscan.region_queries", 1)
		var out []int
		for i, p := range points {
			if d(points[o], p) <= eps {
				out = append(out, i)
			}
		}
		return out
	}
}

// RunGeneric is the DBSCAN expansion loop over an abstract neighbourhood.
// An object is a core object when its neighbourhood holds at least minPts
// objects; clusters are the transitive closure of core-object reachability.
func RunGeneric(n int, neighbors NeighborFunc, minPts int) (*core.Clustering, error) {
	return RunGenericContext(context.Background(), n, neighbors, minPts)
}

// RunGenericContext is RunGeneric with cancellation at each outer-object
// boundary; see RunContext for the interruption semantics.
//
// The labels and the lookup, core and cluster counters depend on which
// objects each neighborhood holds, not on their order within the list, so
// a NeighborFunc may serve its lists in any order. Clusters are numbered
// in the order of their first core object's index; a cluster claims every
// object density-reachable from it that is still unvisited or noise, the
// whole list of each core object it reaches whatever that list's order,
// before the next cluster starts; and whether a reached object is looked
// up depends only on whether the outer loop visited it before, which
// follows the object indices. So a border object within reach of two
// clusters joins the lower-numbered one either way.
func RunGenericContext(ctx context.Context, n int, neighbors NeighborFunc, minPts int) (*core.Clustering, error) {
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if minPts <= 0 {
		return nil, errors.New("dbscan: minPts must be positive")
	}
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "dbscan.run")
	defer endSpan()
	var coreObjects, lookups int64
	var interrupted error
	clusterID := 0
	// The expansion queue holds each object once: an unvisited neighbor of
	// a core object is claimed for the cluster when first seen, and a noise
	// neighbor is adopted as a border object on the spot. Every other
	// object is already settled, so it never enters the queue again.
	var queue []int
	claim := func(nb []int) {
		for _, o := range nb {
			switch labels[o] {
			case unvisited:
				labels[o] = clusterID
				queue = append(queue, o)
			case core.Noise:
				labels[o] = clusterID // border object adopted by the cluster
			}
		}
	}
	for i := 0; i < n; i++ {
		// Outer-boundary cancellation: a cluster expansion never stops
		// halfway, so every discovered cluster is complete.
		if err := ctx.Err(); err != nil {
			interrupted = err
			break
		}
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		lookups++
		if len(nb) < minPts {
			labels[i] = core.Noise
			continue
		}
		coreObjects++
		// Start a new cluster and expand it breadth-first.
		labels[i] = clusterID
		queue = queue[:0]
		claim(nb)
		for qi := 0; qi < len(queue); qi++ {
			onb := neighbors(queue[qi])
			lookups++
			if len(onb) >= minPts {
				coreObjects++
				claim(onb)
			}
		}
		clusterID++
	}
	if rec != nil {
		rec.Count("dbscan.neighborhood_lookups", lookups)
		rec.Count("dbscan.core_objects", coreObjects)
		rec.Count("dbscan.clusters", int64(clusterID))
	}
	if interrupted != nil {
		for i := range labels {
			if labels[i] == unvisited {
				labels[i] = core.Noise
			}
		}
		return core.NewClustering(labels),
			fmt.Errorf("dbscan: interrupted: %v: %w", interrupted, core.ErrInterrupted)
	}
	return core.NewClustering(labels), nil
}
