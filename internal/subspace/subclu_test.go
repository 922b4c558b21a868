package subspace

import (
	"context"
	"math"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

func TestSubcluFindsPlantedClusters(t *testing.T) {
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 50, Width: 0.06},
		{Dims: []int{3, 4}, Size: 40, Width: 0.06},
	}
	ds, truth, err := dataset.SubspaceData(1, 160, 6, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Subclu(ds.Points, SubcluConfig{Eps: 0.05, MinPts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	if f1 := metrics.SubspaceF1(truth, res.Clusters); f1 < 0.75 {
		t.Errorf("SubspaceF1 = %v", f1)
	}
	if res.SubspacesExamined == 0 || res.SubspacesWithClust == 0 {
		t.Error("bookkeeping missing")
	}
}

func TestSubcluArbitraryShape(t *testing.T) {
	// A ring living in dims {0,1} of a 4D dataset with uniform noise dims:
	// grid methods shatter the ring, SUBCLU keeps it as one cluster.
	ring, _ := dataset.RingAndBlob(2, 200, 0)
	n := ring.N()
	pts := make([][]float64, n)
	// Scale the ring into [0,1]^2 and append 2 noise dims.
	for i, p := range ring.Points {
		pts[i] = []float64{
			(p[0] + 1.5) / 3, (p[1] + 1.5) / 3,
			float64(i%17) / 17, float64(i%23) / 23,
		}
	}
	res, err := Subclu(pts, SubcluConfig{Eps: 0.06, MinPts: 4, MaxDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find the cluster in subspace {0,1} covering most ring points.
	best := 0
	for _, c := range res.Clusters {
		if len(c.Dims) == 2 && c.Dims[0] == 0 && c.Dims[1] == 1 && c.Size() > best {
			best = c.Size()
		}
	}
	if best < 180 {
		t.Errorf("ring not kept whole: best {0,1} cluster holds %d/200", best)
	}
}

func TestSubcluErrors(t *testing.T) {
	if _, err := Subclu(nil, SubcluConfig{Eps: 0.1, MinPts: 3}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0.1, 0.2}}
	if _, err := Subclu(pts, SubcluConfig{Eps: 0, MinPts: 3}); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := Subclu(pts, SubcluConfig{Eps: 0.1, MinPts: 0}); err == nil {
		t.Error("minPts=0 should fail")
	}
}

func TestProclusRecoversProjectedClusters(t *testing.T) {
	// Two disjoint projected clusters in different subspaces; PROCLUS is a
	// partitioning method, so make the object sets disjoint.
	objsA := make([]int, 60)
	objsB := make([]int, 60)
	for i := range objsA {
		objsA[i] = i
		objsB[i] = 60 + i
	}
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 60, Width: 0.08, Objects: objsA},
		{Dims: []int{2, 3}, Size: 60, Width: 0.08, Objects: objsB},
	}
	ds, truth, err := dataset.SubspaceData(3, 120, 5, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Proclus(ds.Points, ProclusConfig{K: 2, L: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.K() != 2 {
		t.Fatalf("K = %d", res.Assignment.K())
	}
	if f1 := metrics.SubspaceF1(truth, res.Clusters); f1 < 0.7 {
		t.Errorf("SubspaceF1 = %v", f1)
	}
	// Dimension recovery: each found cluster's dims should overlap its
	// matched truth cluster's dims.
	if dp := metrics.SubspaceDimPrecision(truth, res.Clusters); dp < 0.4 {
		t.Errorf("dim precision = %v", dp)
	}
}

func TestProclusSinglePartition(t *testing.T) {
	// The tutorial's point (slide 66): PROCLUS yields ONE clustering — each
	// object in at most one cluster.
	ds, _, err := dataset.SubspaceData(4, 80, 4, []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 30, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Proclus(ds.Points, ProclusConfig{K: 3, L: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, c := range res.Clusters {
		for _, o := range c.Objects {
			seen[o]++
			if seen[o] > 1 {
				t.Fatalf("object %d in multiple projected clusters", o)
			}
		}
	}
}

func TestProclusErrors(t *testing.T) {
	if _, err := Proclus(nil, ProclusConfig{K: 2}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Proclus([][]float64{{0, 0}}, ProclusConfig{K: 5}); err == nil {
		t.Error("K>n should fail")
	}
}

func TestDOCFindsProjectiveCluster(t *testing.T) {
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 60, Width: 0.08},
	}
	ds, truth, err := dataset.SubspaceData(5, 200, 6, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DOCContext(context.Background(), ds.Points, DOCConfig{W: 0.06, Alpha: 0.15, Beta: 0.25, MaxClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	if f1 := metrics.SubspaceF1(truth, res.Clusters); f1 < 0.7 {
		t.Errorf("SubspaceF1 = %v", f1)
	}
	// First cluster's relevant dims should include the planted ones.
	shared := res.Clusters[0].SharedDims(truth[0])
	if shared < 2 {
		t.Errorf("planted dims poorly recovered: %d shared", shared)
	}
	if len(res.Quality) != len(res.Clusters) {
		t.Error("quality bookkeeping inconsistent")
	}
	for i := 1; i < len(res.Quality); i++ {
		if math.IsNaN(res.Quality[i]) {
			t.Error("NaN quality")
		}
	}
}

func TestDOCDisjointGreedy(t *testing.T) {
	ds, _, err := dataset.SubspaceData(6, 150, 4, []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 50, Width: 0.08},
		{Dims: []int{2, 3}, Size: 50, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DOCContext(context.Background(), ds.Points, DOCConfig{W: 0.06, Alpha: 0.1, Seed: 3, MaxClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy removal: returned clusters must be disjoint.
	seen := map[int]bool{}
	for _, c := range res.Clusters {
		for _, o := range c.Objects {
			if seen[o] {
				t.Fatalf("object %d in two DOC clusters", o)
			}
			seen[o] = true
		}
	}
}

func TestDOCErrors(t *testing.T) {
	if _, err := DOCContext(context.Background(), nil, DOCConfig{W: 0.1}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := DOCContext(context.Background(), [][]float64{{0}}, DOCConfig{W: 0}); err == nil {
		t.Error("W=0 should fail")
	}
}
