package kmeans

import (
	"math"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/dist"
)

// Two clusters emptying in the same center-recompute pass must be re-seeded
// to DISTINCT points; the old code picked the globally farthest point for
// both, collapsing them into duplicate centers.
func TestRecomputeCentersReseedsDistinctPoints(t *testing.T) {
	points := [][]float64{{0, 0}, {1, 0}, {10, 0}, {-7, 0}}
	centers := [][]float64{{0.5, 0}, {100, 100}, {-100, -100}}
	labels := []int{0, 0, 0, 0} // clusters 1 and 2 are empty simultaneously
	next := recomputeCenters(points, labels, 3, 2, centers, nil)

	if len(next) != 3 {
		t.Fatalf("got %d centers", len(next))
	}
	// Cluster 1 takes the farthest point from its assigned center (10,0);
	// cluster 2 must exclude it and take the second farthest (-7,0).
	if next[1][0] != 10 || next[2][0] != -7 {
		t.Errorf("reseeded centers = %v, %v; want (10,0) then (-7,0)", next[1], next[2])
	}
	if next[1][0] == next[2][0] && next[1][1] == next[2][1] {
		t.Fatalf("simultaneously emptied clusters collapsed onto one point: %v", next[1])
	}
	// The surviving cluster keeps its mean.
	if next[0][0] != 1.0 || next[0][1] != 0 {
		t.Errorf("mean center = %v, want (1,0)", next[0])
	}
}

// With more empty clusters than points every point gets used; the fallback
// must not panic or index out of range.
func TestRecomputeCentersDegenerateAllUsed(t *testing.T) {
	points := [][]float64{{1, 1}}
	centers := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	labels := []int{0}
	next := recomputeCenters(points, labels, 3, 2, centers, nil)
	for c, ctr := range next {
		if ctr[0] != 1 || ctr[1] != 1 {
			t.Errorf("center %d = %v, want (1,1)", c, ctr)
		}
	}
}

// sse returns the sum of squared Euclidean distances from each point to its
// assigned center, skipping labels outside the center range.
func sse(points [][]float64, c *core.Clustering, centers [][]float64) float64 {
	var s float64
	for i, p := range points {
		l := c.Labels[i]
		if l < 0 || l >= len(centers) {
			continue
		}
		s += dist.SqEuclidean(p, centers[l])
	}
	return s
}

// Result.SSE must always be the SSE of the returned (Clustering, Centers)
// pair, including when MaxIter stops the loop before convergence — the old
// code reported the SSE measured against the previous iteration's centers.
func TestSSEMatchesReturnedModelAtMaxIter(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(7, 80, [][]float64{{0, 0}, {6, 0}, {0, 6}}, 0.8)
	for _, maxIter := range []int{1, 2, 100} {
		res, err := Run(ds.Points, Config{K: 3, Seed: 3, MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		want := sse(ds.Points, res.Clustering, res.Centers)
		if res.SSE != want {
			t.Errorf("MaxIter=%d: Result.SSE = %v, SSE(Clustering, Centers) = %v", maxIter, res.SSE, want)
		}
	}
}

// Truncating the iteration budget must never report a better (lower) SSE
// than the converged run from the same seed: the truncated model is a
// prefix of the converged one's trajectory. The old MaxIter bug could
// report an SSE belonging to neither the returned centers nor labels,
// breaking this monotonicity.
func TestSSEMonotoneInIterationBudget(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(8, 60, [][]float64{{0, 0}, {5, 5}}, 1.2)
	full, err := Run(ds.Points, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, maxIter := range []int{1, 2, 4, 8} {
		res, err := Run(ds.Points, Config{K: 2, Seed: 1, MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		if res.SSE > prev+1e-9 {
			t.Errorf("MaxIter=%d: SSE %v worse than smaller budget %v", maxIter, res.SSE, prev)
		}
		if res.SSE < full.SSE-1e-9 {
			t.Errorf("MaxIter=%d: truncated SSE %v beats converged %v", maxIter, res.SSE, full.SSE)
		}
		prev = res.SSE
	}
}
