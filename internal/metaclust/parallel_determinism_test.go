package metaclust

import (
	"context"
	"math"
	"slices"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

// Ensemble generation fans out over the worker pool while the RNG draws stay
// serial, so every generated member, weight vector and representative must
// be exactly identical for any worker count.
func TestMetaClusteringWorkersDeterministic(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(1, 20)
	serial, err := Run(ds.Points, Config{K: 2, NumSolutions: 10, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ds.Points, Config{K: 2, NumSolutions: 10, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.MeanPairwise != serial.MeanPairwise {
		t.Errorf("MeanPairwise %v != %v", par.MeanPairwise, serial.MeanPairwise)
	}
	for s := range serial.Generated {
		for i := range serial.Generated[s].Labels {
			if par.Generated[s].Labels[i] != serial.Generated[s].Labels[i] {
				t.Fatalf("solution %d label %d differs", s, i)
			}
		}
		for j := range serial.Weights[s] {
			if par.Weights[s][j] != serial.Weights[s][j] {
				t.Fatalf("solution %d weight %d differs", s, j)
			}
		}
	}
	for i := range serial.MetaLabels {
		if par.MetaLabels[i] != serial.MetaLabels[i] {
			t.Fatalf("meta label %d differs", i)
		}
	}
}

// Group with a nil Diss reads 1 − Rand index for all pairs at once; with an
// explicit metrics.RandDissimilarity it calls the function once per pair.
// Both must group the served meta shape identically, bit for bit, at every
// worker count.
func TestGroupNilDissEqualsRandDissimilarity(t *testing.T) {
	sols, err := Generate(context.Background(), servedShape(1), Config{K: 4, NumSolutions: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	clusterings := make([]*core.Clustering, len(sols))
	for i, s := range sols {
		clusterings[i] = s.Clustering
	}
	want, err := Group(context.Background(), clusterings, 3, metrics.RandDissimilarity(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, diss := range []core.DissimilarityFunc{nil, metrics.RandDissimilarity()} {
			got, err := Group(context.Background(), clusterings, 3, diss, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.MetaLabels, want.MetaLabels) ||
				!slices.Equal(got.Representatives, want.Representatives) ||
				math.Float64bits(got.MeanPairwise) != math.Float64bits(want.MeanPairwise) {
				t.Fatalf("workers=%d nil Diss=%v: got %+v, want %+v", workers, diss == nil, got, want)
			}
		}
	}
}
