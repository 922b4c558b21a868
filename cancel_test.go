package multiclust

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func cancelTestPoints(t *testing.T) [][]float64 {
	t.Helper()
	centers := [][]float64{{0, 0, 0}, {6, 6, 0}, {0, 6, 6}}
	ds, _ := GaussianBlobs(7, 90, centers, 0.6)
	return ds.Points
}

// TestCancelledContextInterrupted verifies the cancellation contract on
// every ...Context variant: an already-cancelled context returns within one
// iteration boundary with an error wrapping ErrInterrupted and a
// structurally valid best-so-far result.
func TestCancelledContextInterrupted(t *testing.T) {
	pts := cancelTestPoints(t)
	n := len(pts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("kmeans", func(t *testing.T) {
		res, err := KMeansContext(ctx, pts, KMeansConfig{K: 3, Seed: 1, Restarts: 2})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		checkClustering(t, "kmeans", res.Clustering, n)
	})
	t.Run("em", func(t *testing.T) {
		res, err := EMContext(ctx, pts, EMConfig{K: 3, Seed: 1})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		checkClustering(t, "em", res.Clustering, n)
	})
	t.Run("spectral", func(t *testing.T) {
		res, err := SpectralContext(ctx, pts, SpectralConfig{K: 3, Seed: 1})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		checkClustering(t, "spectral", res.Clustering, n)
	})
	t.Run("metaclustering", func(t *testing.T) {
		res, err := MetaClusteringContext(ctx, pts, MetaClusteringConfig{K: 3, NumSolutions: 4, Seed: 1})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		for _, c := range res.Representatives {
			checkClustering(t, "metaclustering", c, n)
		}
	})
	t.Run("dbscan", func(t *testing.T) {
		res, err := DBSCANContext(ctx, pts, DBSCANConfig{Eps: 1.0, MinPts: 3})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		checkClustering(t, "dbscan", res, n)
	})
	t.Run("proclus", func(t *testing.T) {
		res, err := ProclusContext(ctx, pts, ProclusConfig{K: 3, L: 2, Seed: 1})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		checkClustering(t, "proclus", res.Assignment, n)
	})
	t.Run("orclus", func(t *testing.T) {
		res, err := OrclusContext(ctx, pts, OrclusConfig{K: 3, L: 2, Seed: 1})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
		checkClustering(t, "orclus", res.Assignment, n)
	})
	t.Run("doc", func(t *testing.T) {
		res, err := DOCContext(ctx, pts, DOCConfig{W: 1.0, Seed: 1, MaxClusters: 3})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
	})
	t.Run("subclu", func(t *testing.T) {
		res, err := SubcluContext(ctx, pts, SubcluConfig{Eps: 0.5, MinPts: 3})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
	})
	t.Run("dusc", func(t *testing.T) {
		res, err := DuscContext(ctx, pts, DuscConfig{Eps: 0.5})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
	})
	t.Run("mineclus", func(t *testing.T) {
		res, err := MineClusContext(ctx, pts, MineClusConfig{W: 1.0, Seed: 1, MaxClusters: 3})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if res == nil {
			t.Fatal("nil best-so-far result")
		}
	})
}

// TestContextBackgroundIdentical pins the determinism contract: a Context
// variant under context.Background() is byte-identical to the plain call.
func TestContextBackgroundIdentical(t *testing.T) {
	pts := cancelTestPoints(t)
	bg := context.Background()

	plain, err := KMeans(pts, KMeansConfig{K: 3, Seed: 5, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := KMeansContext(bg, pts, KMeansConfig{K: 3, Seed: 5, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SSE != ctxed.SSE {
		t.Errorf("SSE %v != %v", plain.SSE, ctxed.SSE)
	}
	for i := range plain.Clustering.Labels {
		if plain.Clustering.Labels[i] != ctxed.Clustering.Labels[i] {
			t.Fatalf("label[%d] differs", i)
		}
	}

	emPlain, err := EM(pts, EMConfig{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	emCtx, err := EMContext(bg, pts, EMConfig{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if emPlain.LogLik != emCtx.LogLik {
		t.Errorf("LogLik %v != %v", emPlain.LogLik, emCtx.LogLik)
	}
}

// TestValidationGates verifies the facade rejects contaminated or
// mis-shaped input with typed errors before any algorithm runs.
func TestValidationGates(t *testing.T) {
	nan := [][]float64{{1, 2}, {3, nanValue()}}
	ragged := [][]float64{{1, 2}, {3}}
	var empty [][]float64

	if _, err := KMeans(nan, KMeansConfig{K: 2}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("KMeans(NaN) err = %v, want ErrInvalidInput", err)
	}
	if _, err := KMeans(ragged, KMeansConfig{K: 2}); !errors.Is(err, ErrShape) {
		t.Errorf("KMeans(ragged) err = %v, want ErrShape", err)
	}
	if _, err := KMeans(empty, KMeansConfig{K: 2}); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("KMeans(empty) err = %v, want ErrEmptyDataset", err)
	}
	// Positional detail is part of the contract.
	if _, err := EM(nan, EMConfig{K: 2}); err == nil || !strings.Contains(err.Error(), "row 1 col 1") {
		t.Errorf("EM(NaN) err = %v, want position row 1 col 1", err)
	}
	// Label gates.
	ok := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	if _, err := Coala(ok, nil, CoalaConfig{K: 2}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("Coala(nil given) err = %v, want ErrInvalidInput", err)
	}
	short := NewClustering([]int{0, 1})
	if _, err := Coala(ok, short, CoalaConfig{K: 2}); !errors.Is(err, ErrShape) {
		t.Errorf("Coala(short given) err = %v, want ErrShape", err)
	}
	// View gates.
	if _, err := CoEM(ok, ok[:2], CoEMConfig{K: 2}); !errors.Is(err, ErrShape) {
		t.Errorf("CoEM(mismatched views) err = %v, want ErrShape", err)
	}
	if _, err := HSIC(ok, nan); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("HSIC(NaN view) err = %v, want ErrInvalidInput", err)
	}
	// Labeling gates.
	if _, err := CSPA([][]int{{0, 1, 0}, {0, 1}}, ConsensusConfig{K: 2}); !errors.Is(err, ErrShape) {
		t.Errorf("CSPA(ragged labelings) err = %v, want ErrShape", err)
	}
}

func nanValue() float64 {
	zero := 0.0
	return zero / zero
}
