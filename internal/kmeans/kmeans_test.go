package kmeans

import (
	"context"
	"math/rand"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/dist"
)

func TestRunSeparatesBlobs(t *testing.T) {
	ds, truth := dataset.GaussianBlobs(1, 120, [][]float64{{0, 0}, {10, 0}, {0, 10}}, 0.5)
	res, err := Run(ds.Points, Config{K: 3, Seed: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clustering.K() != 3 {
		t.Fatalf("K = %d", res.Clustering.K())
	}
	// Every ground-truth cluster must map to exactly one found cluster.
	mapping := map[int]int{}
	for i, l := range res.Clustering.Labels {
		if prev, ok := mapping[truth[i]]; ok && prev != l {
			t.Fatalf("ground truth cluster split: object %d", i)
		}
		mapping[truth[i]] = l
	}
	if res.SSE <= 0 {
		t.Errorf("SSE = %v", res.SSE)
	}
	if res.Iterations <= 0 {
		t.Errorf("Iterations = %d", res.Iterations)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Run(pts, Config{K: 3}); err == nil {
		t.Error("K>n should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(2, 60, [][]float64{{0, 0}, {5, 5}}, 0.4)
	a, _ := Run(ds.Points, Config{K: 2, Seed: 9})
	b, _ := Run(ds.Points, Config{K: 2, Seed: 9})
	for i := range a.Clustering.Labels {
		if a.Clustering.Labels[i] != b.Clustering.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
}

func TestRestartsImproveOrEqual(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(3, 90, [][]float64{{0, 0}, {4, 0}, {8, 0}}, 0.6)
	one, _ := Run(ds.Points, Config{K: 3, Seed: 5, Restarts: 1})
	many, _ := Run(ds.Points, Config{K: 3, Seed: 5, Restarts: 8})
	if many.SSE > one.SSE+1e-9 {
		t.Errorf("more restarts worsened SSE: %v vs %v", many.SSE, one.SSE)
	}
}

func TestPlusPlusSeedsDistinct(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(4, 40, [][]float64{{0, 0}, {100, 100}}, 0.1)
	rng := rand.New(rand.NewSource(1))
	seeds := plusPlusSeeds(context.Background(), ds.Points, 2, rng, nil)
	if len(seeds) != 2 {
		t.Fatal("wrong seed count")
	}
	if dist.Euclidean(seeds[0], seeds[1]) < 10 {
		t.Error("k-means++ should pick far-apart seeds on separated blobs")
	}
}

func TestPlusPlusSeedsDegenerate(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	rng := rand.New(rand.NewSource(1))
	seeds := plusPlusSeeds(context.Background(), pts, 3, rng, nil)
	if len(seeds) != 3 {
		t.Fatal("should still return k seeds on duplicate data")
	}
}

func TestSSEHelper(t *testing.T) {
	pts := [][]float64{{0}, {2}}
	c := core.NewClustering([]int{0, 0})
	centers := [][]float64{{1}}
	if got := sse(pts, c, centers); got != 2 {
		t.Errorf("sse = %v, want 2", got)
	}
	// Noise points ignored.
	c2 := core.NewClustering([]int{0, core.Noise})
	if got := sse(pts, c2, centers); got != 1 {
		t.Errorf("sse with noise = %v, want 1", got)
	}
}
