package em

import (
	"math"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

func TestFitSeparatesBlobs(t *testing.T) {
	ds, truth := dataset.GaussianBlobs(1, 200, [][]float64{{0, 0}, {8, 8}}, 0.7)
	res, err := Fit(ds.Points, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ari := metrics.AdjustedRand(truth, res.Clustering.Labels); ari < 0.95 {
		t.Errorf("ARI = %v", ari)
	}
	// Posteriors are proper distributions.
	for i, row := range res.Posterior {
		var s float64
		for _, v := range row {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("posterior out of range at %d: %v", i, row)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("posterior row %d sums to %v", i, s)
		}
	}
	// Weights sum to 1 and are roughly balanced.
	var ws float64
	for _, w := range res.Model.Pi {
		ws += w
	}
	if math.Abs(ws-1) > 1e-9 {
		t.Errorf("weights sum to %v", ws)
	}
	if res.Model.Pi[0] < 0.3 || res.Model.Pi[0] > 0.7 {
		t.Errorf("weights = %v, want about 0.5 each", res.Model.Pi)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Config{K: 2}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Fit([][]float64{{0}}, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Fit([][]float64{{0}}, Config{K: 5}); err == nil {
		t.Error("K>n should fail")
	}
}

func TestLogLikelihoodIncreasesDuringEM(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(2, 150, [][]float64{{0, 0}, {5, 5}, {10, 0}}, 0.6)
	m := RandomModel(ds.Points, 3, 1)
	cfg := Config{K: 3}
	cfg.defaults()
	post := make([][]float64, ds.N())
	for i := range post {
		post[i] = make([]float64, 3)
	}
	prev := math.Inf(-1)
	for iter := 0; iter < 15; iter++ {
		ll := EStep(ds.Points, m, post, cfg.MinVar, 0)
		if ll < prev-1e-6 {
			t.Fatalf("log-likelihood decreased at iter %d: %v -> %v", iter, prev, ll)
		}
		prev = ll
		MStep(ds.Points, post, m, cfg.MinVar)
	}
}

func TestFitFromContinuesImproving(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(3, 100, [][]float64{{0, 0}, {6, 6}}, 0.5)
	start := RandomModel(ds.Points, 2, 9)
	startLL := EStep(ds.Points, start, newPost(ds.N(), 2), 1e-6, 0)
	res, err := FitFrom(ds.Points, start, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLik < startLL {
		t.Errorf("EM decreased likelihood: %v -> %v", startLL, res.LogLik)
	}
}

func TestBICPrefersTrueK(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(4, 240, [][]float64{{0, 0}, {7, 0}, {0, 7}}, 0.5)
	bics := map[int]float64{}
	for _, k := range []int{1, 3, 6} {
		res, err := Fit(ds.Points, Config{K: k, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		bics[k] = BIC(ds.Points, res.Model, res.LogLik)
	}
	if bics[3] >= bics[1] {
		t.Errorf("BIC should prefer k=3 over k=1: %v", bics)
	}
	if bics[3] >= bics[6] {
		t.Errorf("BIC should prefer k=3 over k=6: %v", bics)
	}
}

func TestHarden(t *testing.T) {
	post := [][]float64{{0.9, 0.1}, {0.2, 0.8}}
	c := Harden(post)
	if c.Labels[0] != 0 || c.Labels[1] != 1 {
		t.Errorf("Harden = %v", c.Labels)
	}
}

func TestModelCloneAndValidate(t *testing.T) {
	m := RandomModel([][]float64{{1, 2}, {3, 4}}, 2, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Means[0][0] = 99
	if m.Means[0][0] == 99 {
		t.Error("Clone aliases means")
	}
	bad := &Model{Pi: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent model should fail validation")
	}
}

func TestDeadComponentSurvives(t *testing.T) {
	// All points identical: one component will starve; EM must not NaN.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LogLik) {
		t.Error("log-likelihood is NaN")
	}
	for _, w := range res.Model.Pi {
		if math.IsNaN(w) {
			t.Error("weight is NaN")
		}
	}
}

// BenchmarkEStep times one E-step on the shape of a co-EM view in the
// lib-paradigms workload: 2000 rows of 4 dimensions and k = 3, with the
// model of a 10-iteration fit.
func BenchmarkEStep(b *testing.B) {
	va, _, _ := dataset.TwoSourceViews(12, 2000, 3, 4, 4, 0.8, 0.1)
	fit, err := Fit(va.Points, Config{K: 3, Seed: 12, MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	post := fit.Posterior
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EStep(va.Points, fit.Model, post, 1e-6, 0)
	}
}
