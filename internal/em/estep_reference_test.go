package em

import (
	"fmt"
	"math"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/stats"
)

// estepReference is EStep as it stood before the log weights and variance
// terms were computed once per call: math.Log(Pi[c]) and
// stats.DiagGaussianLogPDF for every row and component. It is the oracle
// of TestEStepEqualsReference.
func estepReference(points [][]float64, m *Model, post [][]float64, minVar float64) float64 {
	k := len(m.Pi)
	var ll float64
	logp := make([]float64, k)
	for i, x := range points {
		for c := 0; c < k; c++ {
			lw := math.Inf(-1)
			if m.Pi[c] > 0 {
				lw = math.Log(m.Pi[c])
			}
			logp[c] = lw + stats.DiagGaussianLogPDF(x, m.Means[c], m.Vars[c], minVar)
		}
		lse := stats.LogSumExp(logp)
		ll += lse
		for c := 0; c < k; c++ {
			post[i][c] = math.Exp(logp[c] - lse)
		}
	}
	return ll
}

// estepCase is one E-step input: points, a model and a variance floor.
type estepCase struct {
	name   string
	points [][]float64
	model  *Model
	minVar float64
}

// estepCases are E-step inputs with a variance below the floor, a
// zero-weight component, and a one-dimensional view, besides a fitted
// co-EM-shaped model.
func estepCases(t *testing.T) []estepCase {
	t.Helper()
	va, _, _ := dataset.TwoSourceViews(5, 4*minRowsPerWorker, 3, 4, 4, 0.8, 0.1)
	fit, err := Fit(va.Points, Config{K: 3, Seed: 5, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	floored := fit.Model.Clone()
	floored.Vars[1][2] = 1e-9 // below the 1e-6 floor
	floored.Pi[2] = 0         // a component no row can take
	blobs, _ := dataset.GaussianBlobs(6, 4*minRowsPerWorker, [][]float64{{0}, {3}, {9}}, 0.7)
	line := RandomModel(blobs.Points, 3, 6)
	line.Vars[0][0] = 0.01
	line.Pi = []float64{0.5, 0, 0.5}
	return []estepCase{
		{"fitted", va.Points, fit.Model, 1e-6},
		{"floored", va.Points, floored, 1e-6},
		{"coarse floor", va.Points, floored, 0.5},
		{"d=1", blobs.Points, line, 1e-6},
		{"d=1 coarse floor", blobs.Points, line, 0.3},
	}
}

// TestEStepEqualsReference pins every E-step that reads stats.DiagMixture
// to the per-row form bit for bit: EStep at workers 1, 2 and 4, on every
// posterior and log-likelihood.
// CAMI's penalised E-step has its own oracle in internal/simultaneous.
func TestEStepEqualsReference(t *testing.T) {
	for _, tc := range estepCases(t) {
		k := len(tc.model.Pi)
		want := newPost(len(tc.points), k)
		wantLL := estepReference(tc.points, tc.model, want, tc.minVar)
		check := func(name string, ll float64, post [][]float64) {
			t.Helper()
			if math.Float64bits(ll) != math.Float64bits(wantLL) {
				t.Fatalf("%s %s: log-likelihood %v, reference %v", tc.name, name, ll, wantLL)
			}
			for i := range want {
				for c := range want[i] {
					if math.Float64bits(post[i][c]) != math.Float64bits(want[i][c]) {
						t.Fatalf("%s %s: posterior[%d][%d] = %v, reference %v", tc.name, name, i, c, post[i][c], want[i][c])
					}
				}
			}
		}
		for _, w := range []int{1, 2, 4} {
			got := newPost(len(tc.points), k)
			check(fmt.Sprintf("EStep w=%d", w), EStep(tc.points, tc.model, got, tc.minVar, w), got)
		}
	}
}

func newPost(n, k int) [][]float64 {
	post := make([][]float64, n)
	for i := range post {
		post[i] = make([]float64, k)
	}
	return post
}
