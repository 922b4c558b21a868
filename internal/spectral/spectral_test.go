package spectral

import (
	"context"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

func TestRunBlobs(t *testing.T) {
	ds, truth := dataset.GaussianBlobs(1, 90, [][]float64{{0, 0}, {6, 0}, {0, 6}}, 0.4)
	res, err := Run(ds.Points, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ari := metrics.AdjustedRand(truth, res.Clustering.Labels); ari < 0.9 {
		t.Errorf("ARI = %v", ari)
	}
	if res.Sigma <= 0 {
		t.Error("auto sigma not set")
	}
}

func TestRunRing(t *testing.T) {
	// Non-convex structure: spectral clustering separates ring from blob
	// where k-means cannot.
	ds, truth := dataset.RingAndBlob(2, 120, 60)
	res, err := Run(ds.Points, Config{K: 2, Seed: 1, Sigma: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if ari := metrics.AdjustedRand(truth, res.Clustering.Labels); ari < 0.9 {
		t.Errorf("ring ARI = %v", ari)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Run([][]float64{{0}}, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Run([][]float64{{0}}, Config{K: 5}); err == nil {
		t.Error("K>n should fail")
	}
}

func TestRBFAffinityProperties(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.1, 0}, {5, 5}}
	w, sigma := RBFAffinity(pts, 1)
	if sigma != 1 {
		t.Errorf("sigma = %v", sigma)
	}
	if w.At(0, 0) != 0 {
		t.Error("diagonal must be zero")
	}
	if w.At(0, 1) <= w.At(0, 2) {
		t.Error("closer points must have higher affinity")
	}
	if w.At(0, 1) != w.At(1, 0) {
		t.Error("affinity must be symmetric")
	}
}

func TestEmbedErrors(t *testing.T) {
	w, _ := RBFAffinity([][]float64{{0}, {1}}, 1)
	if _, err := EmbedContext(context.Background(), w, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := EmbedContext(context.Background(), w, 3); err == nil {
		t.Error("k>n should fail")
	}
}

func TestEmbedRowsUnitNorm(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(3, 40, [][]float64{{0, 0}, {5, 5}}, 0.3)
	w, _ := RBFAffinity(ds.Points, 0)
	emb, err := EmbedContext(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < emb.Rows; i++ {
		var n float64
		for j := 0; j < emb.Cols; j++ {
			n += emb.At(i, j) * emb.At(i, j)
		}
		if n > 1+1e-9 || n < 1-1e-9 {
			t.Fatalf("row %d norm^2 = %v", i, n)
		}
	}
}
