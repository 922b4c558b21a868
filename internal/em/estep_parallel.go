package em

import (
	"math"

	"multiclust/internal/parallel"
	"multiclust/internal/stats"
)

// EStepParallel is EStep with the row loop fanned out over
// internal/parallel. Every row's responsibilities and log-likelihood term
// are computed independently into that row's own slots, and the total
// log-likelihood is reduced in index order afterwards — the identical
// floating-point additions EStep performs — so the result is byte-identical
// to EStep for any worker count. The streaming co-EM path uses it to keep
// per-chunk E-steps parallel without forking the snapshot bytes.
func EStepParallel(points [][]float64, m *Model, post [][]float64, minVar float64, workers int) float64 {
	k := len(m.Pi)
	n := len(points)
	mix := stats.NewDiagMixture(m.Pi, m.Means, m.Vars, minVar)
	rowLL := make([]float64, n)
	parallel.For(n, workers, func(lo, hi int) {
		logp := make([]float64, k)
		for i := lo; i < hi; i++ {
			mix.LogJoint(points[i], logp)
			lse := stats.LogSumExp(logp)
			rowLL[i] = lse
			for c := 0; c < k; c++ {
				post[i][c] = math.Exp(logp[c] - lse)
			}
		}
	})
	var ll float64
	for _, v := range rowLL {
		ll += v
	}
	return ll
}
