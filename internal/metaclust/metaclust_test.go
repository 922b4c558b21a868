package metaclust

import (
	"context"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
	"multiclust/internal/obs"
)

// servedShape is the dataset shape of the served meta benchmark job: 300
// rows of two hidden 4-dimensional views with 4 and 3 clusters.
func servedShape(seed int64) [][]float64 {
	ds, _, _ := dataset.MultiViewGaussians(seed, 300, []dataset.ViewSpec{
		{Dims: 4, K: 4, Sep: 4, Sigma: 0.6},
		{Dims: 4, K: 3, Sep: 4, Sigma: 0.6},
	})
	return ds.Points
}

// BenchmarkMetaJob runs one served meta job's clustering (K 4, 20 base
// solutions, 3 groups on the served shape) with no recorder and with a
// fresh per-job Collector, as the job engine installs one.
func BenchmarkMetaJob(b *testing.B) {
	pts := servedShape(1)
	for _, name := range []string{"nil", "collector"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				if name == "collector" {
					ctx = obs.NewContext(ctx, obs.NewCollector())
				}
				if _, err := RunContext(ctx, pts, Config{K: 4, NumSolutions: 20, MetaClusters: 3, Seed: int64(i % 8)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestRunRecoversBothToyViews(t *testing.T) {
	ds, hor, ver := dataset.FourBlobToy(1, 30)
	res, err := Run(ds.Points, Config{K: 2, NumSolutions: 30, MetaClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generated) != 30 {
		t.Fatalf("generated %d", len(res.Generated))
	}
	if len(res.Representatives) != 3 {
		t.Fatalf("representatives %d", len(res.Representatives))
	}
	// Among representatives there should be one close to the horizontal
	// split and one close to the vertical split.
	bestHor, bestVer := 0.0, 0.0
	for _, r := range res.Representatives {
		if a := metrics.AdjustedRand(hor, r.Labels); a > bestHor {
			bestHor = a
		}
		if a := metrics.AdjustedRand(ver, r.Labels); a > bestVer {
			bestVer = a
		}
	}
	if bestHor < 0.8 || bestVer < 0.8 {
		t.Errorf("representatives miss a view: hor=%v ver=%v", bestHor, bestVer)
	}
}

func TestBlindGenerationIsRedundant(t *testing.T) {
	// The tutorial's criticism (slide 29): many generated solutions are
	// near-duplicates. Verify redundancy exists: mean pairwise dissimilarity
	// of all generated solutions is much lower than 1, and at least two
	// generated solutions are near-identical.
	ds, _, _ := dataset.FourBlobToy(2, 25)
	res, err := Run(ds.Points, Config{K: 2, NumSolutions: 20, MetaClusters: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	for i := 0; i < len(res.Generated) && !foundDup; i++ {
		for j := i + 1; j < len(res.Generated); j++ {
			if metrics.RandIndex(res.Generated[i].Labels, res.Generated[j].Labels) > 0.99 {
				foundDup = true
				break
			}
		}
	}
	if !foundDup {
		t.Error("expected near-duplicate base solutions from blind generation")
	}
	if res.MeanPairwise <= 0 {
		t.Errorf("mean pairwise dissimilarity = %v, want > 0", res.MeanPairwise)
	}
}

func TestMetaLabelsPartitionSolutions(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(4, 20)
	res, err := Run(ds.Points, Config{K: 2, NumSolutions: 12, MetaClusters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MetaLabels) != 12 {
		t.Fatalf("meta labels %d", len(res.MetaLabels))
	}
	seen := map[int]bool{}
	for _, l := range res.MetaLabels {
		if l < 0 {
			t.Fatal("meta labels must not contain noise")
		}
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Errorf("meta clusters = %d, want 4", len(seen))
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0}, {1}, {2}}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Run(pts, Config{K: 2, NumSolutions: 2, MetaClusters: 5}); err == nil {
		t.Error("MetaClusters > NumSolutions should fail")
	}
}

func TestDeterminism(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(5, 15)
	a, _ := Run(ds.Points, Config{K: 2, NumSolutions: 8, MetaClusters: 2, Seed: 11})
	b, _ := Run(ds.Points, Config{K: 2, NumSolutions: 8, MetaClusters: 2, Seed: 11})
	for i := range a.Generated {
		for j := range a.Generated[i].Labels {
			if a.Generated[i].Labels[j] != b.Generated[i].Labels[j] {
				t.Fatal("same seed must reproduce the same solutions")
			}
		}
	}
}
