package simultaneous

import (
	"math"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/em"
	"multiclust/internal/stats"
)

// penalizedEStepReference is penalizedEStep as it stood before the log
// weights and variance terms were computed once per call: math.Log(Pi[c])
// and stats.DiagGaussianLogPDF for every row and component. It is the
// oracle of TestPenalizedEStepEqualsReference.
func penalizedEStepReference(points [][]float64, m *em.Model, post, other [][]float64, mu, minVar float64) float64 {
	k := len(m.Pi)
	ko := len(other[0])

	joint, pc, qc := softJoint(post, other)
	uJ := jointSmoothing / float64(k*ko)
	uC := jointSmoothing / float64(k)
	uO := jointSmoothing / float64(ko)
	for c := 0; c < k; c++ {
		for j := 0; j < ko; j++ {
			joint[c][j] = (1-jointSmoothing)*joint[c][j] + uJ
		}
	}
	for c := 0; c < k; c++ {
		pc[c] = (1-jointSmoothing)*pc[c] + uC
	}
	for j := 0; j < ko; j++ {
		qc[j] = (1-jointSmoothing)*qc[j] + uO
	}

	grad := make([][]float64, k)
	for c := 0; c < k; c++ {
		grad[c] = make([]float64, ko)
		for j := 0; j < ko; j++ {
			grad[c][j] = math.Log(joint[c][j] / (pc[c] * qc[j]))
		}
	}

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
		ll += stats.LogSumExp(logp)
		for c := 0; c < k; c++ {
			var pen float64
			for j := 0; j < ko; j++ {
				pen += other[i][j] * grad[c][j]
			}
			logp[c] -= mu * pen
		}
		lse := stats.LogSumExp(logp)
		for c := 0; c < k; c++ {
			post[i][c] = math.Exp(logp[c] - lse)
		}
	}
	return ll
}

// TestPenalizedEStepEqualsReference pins CAMI's penalised E-step to the
// per-row form bit for bit, on every posterior and log-likelihood, for
// fitted models and for the same models with a variance below the floor
// and a zero-weight component, in four dimensions, two and one.
func TestPenalizedEStepEqualsReference(t *testing.T) {
	toy, _, _ := dataset.FourBlobToy(3, 40)
	view, _, _ := dataset.TwoSourceViews(5, 300, 3, 4, 4, 0.8, 0.1)
	line, _ := dataset.GaussianBlobs(6, 200, [][]float64{{0}, {3}, {9}}, 0.7)
	for _, tc := range []struct {
		name   string
		points [][]float64
		minVar float64
	}{
		{"toy", toy.Points, 1e-6},
		{"toy coarse floor", toy.Points, 0.05},
		{"two-source view", view.Points, 1e-6},
		{"d=1", line.Points, 1e-6},
	} {
		n := len(tc.points)
		fitted := kmeansModel(tc.points, 3, 1, tc.minVar)
		floored := fitted.Clone()
		floored.Vars[0][0] = 1e-9 // below the floor
		floored.Pi[2] = 0         // a component no row can take
		other := newPost(n, 2)
		em.EStep(tc.points, kmeansModel(tc.points, 2, 2, tc.minVar), other, tc.minVar, 0)
		for _, m := range []*em.Model{fitted, floored} {
			got, want := newPost(n, 3), newPost(n, 3)
			em.EStep(tc.points, m, got, tc.minVar, 0)
			for i := range want {
				copy(want[i], got[i])
			}
			wantLL := penalizedEStepReference(tc.points, m, want, other, 2.5, tc.minVar)
			gotLL := penalizedEStep(tc.points, m, got, other, 2.5, tc.minVar)
			if math.Float64bits(gotLL) != math.Float64bits(wantLL) {
				t.Fatalf("%s: log-likelihood %v, reference %v", tc.name, gotLL, wantLL)
			}
			for i := range want {
				for c := range want[i] {
					if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
						t.Fatalf("%s: posterior[%d][%d] = %v, reference %v", tc.name, i, c, got[i][c], want[i][c])
					}
				}
			}
		}
	}
}
