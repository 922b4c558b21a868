package subspace

import (
	"context"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

func TestMineClusFindsProjectiveClusters(t *testing.T) {
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 60, Width: 0.08},
	}
	ds, truth, err := dataset.SubspaceData(5, 200, 6, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineClusContext(context.Background(), ds.Points, MineClusConfig{W: 0.06, Alpha: 0.15, Beta: 0.25, MaxClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	if f1 := metrics.SubspaceF1(truth, res.Clusters); f1 < 0.7 {
		t.Errorf("SubspaceF1 = %v", f1)
	}
	if shared := res.Clusters[0].SharedDims(truth[0]); shared < 2 {
		t.Errorf("planted dims recovered %d/3", shared)
	}
	if len(res.Quality) != len(res.Clusters) {
		t.Error("quality bookkeeping inconsistent")
	}
}

func TestMineClusDeterministicVsDOCShape(t *testing.T) {
	// On the same data and parameters, MineClus (deterministic itemset
	// growth) should find a cluster at least as high-quality as DOC's
	// random search, measured by the shared mu function.
	ds, _, err := dataset.SubspaceData(6, 150, 4, []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 50, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MineClusContext(context.Background(), ds.Points, MineClusConfig{W: 0.06, Alpha: 0.1, Seed: 3, MaxClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DOCContext(context.Background(), ds.Points, DOCConfig{W: 0.06, Alpha: 0.1, Seed: 3, MaxClusters: 1, OuterTrials: 5, InnerTrials: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Quality) == 0 {
		t.Fatal("MineClus found nothing")
	}
	if len(doc.Quality) > 0 && mc.Quality[0] < doc.Quality[0]*0.5 {
		t.Errorf("MineClus quality %v far below DOC %v", mc.Quality[0], doc.Quality[0])
	}
}

func TestMineClusDisjoint(t *testing.T) {
	ds, _, err := dataset.SubspaceData(7, 150, 4, []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 50, Width: 0.08},
		{Dims: []int{2, 3}, Size: 50, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineClusContext(context.Background(), ds.Points, MineClusConfig{W: 0.06, Alpha: 0.1, Seed: 1, MaxClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range res.Clusters {
		for _, o := range c.Objects {
			if seen[o] {
				t.Fatalf("object %d in two clusters", o)
			}
			seen[o] = true
		}
	}
}

func TestMineClusErrors(t *testing.T) {
	if _, err := MineClusContext(context.Background(), nil, MineClusConfig{W: 0.1}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := MineClusContext(context.Background(), [][]float64{{0}}, MineClusConfig{W: 0}); err == nil {
		t.Error("W=0 should fail")
	}
}
