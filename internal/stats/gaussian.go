package stats

import (
	"errors"
	"math"

	"multiclust/internal/linalg"
)

const log2Pi = 1.8378770664093453 // log(2*pi)

// Gaussian is a multivariate normal distribution with full covariance.
type Gaussian struct {
	Mean []float64
	Cov  *linalg.Matrix
	chol *linalg.Cholesky
}

// NewGaussian builds a Gaussian and factorizes its covariance. The covariance
// is regularized by reg on the diagonal before factorization; pass 0 to use
// it as-is.
func NewGaussian(mean []float64, cov *linalg.Matrix, reg float64) (*Gaussian, error) {
	if cov.Rows != len(mean) || cov.Cols != len(mean) {
		return nil, errors.New("stats: Gaussian covariance shape mismatch")
	}
	c := cov.Clone()
	if reg > 0 {
		linalg.RegularizeInPlace(c, reg)
	}
	ch, err := linalg.CholeskyDecompose(c)
	if err != nil {
		return nil, err
	}
	return &Gaussian{Mean: append([]float64(nil), mean...), Cov: c, chol: ch}, nil
}

// LogPDF returns the log density at x.
func (g *Gaussian) LogPDF(x []float64) float64 {
	d := len(g.Mean)
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = x[i] - g.Mean[i]
	}
	quad := g.chol.QuadForm(diff)
	return -0.5 * (float64(d)*log2Pi + g.chol.LogDet() + quad)
}

// PDF returns the density at x.
func (g *Gaussian) PDF(x []float64) float64 { return math.Exp(g.LogPDF(x)) }

// Mahalanobis returns the Mahalanobis distance from x to the mean.
func (g *Gaussian) Mahalanobis(x []float64) float64 {
	d := len(g.Mean)
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = x[i] - g.Mean[i]
	}
	return math.Sqrt(g.chol.QuadForm(diff))
}

// KLGaussians returns KL(p||q) in nats for two Gaussians of equal dimension:
//
//	0.5 * ( tr(Σq^{-1}Σp) + (μq-μp)^T Σq^{-1} (μq-μp) - d + ln(detΣq/detΣp) )
func KLGaussians(p, q *Gaussian) float64 {
	d := len(p.Mean)
	qinv, err := linalg.Inverse(q.Cov)
	if err != nil {
		return math.Inf(1)
	}
	tr := qinv.Mul(p.Cov).Trace()
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = q.Mean[i] - p.Mean[i]
	}
	quad := linalg.Dot(diff, qinv.MulVec(diff))
	logdet := q.chol.LogDet() - p.chol.LogDet()
	kl := 0.5 * (tr + quad - float64(d) + logdet)
	if kl < 0 {
		kl = 0
	}
	return kl
}

// DiagGaussianLogPDF returns the log density of a diagonal-covariance
// Gaussian with per-dimension variances vars (clamped below at minVar).
func DiagGaussianLogPDF(x, mean, vars []float64, minVar float64) float64 {
	var lp float64
	for i := range x {
		v := vars[i]
		if v < minVar {
			v = minVar
		}
		diff := x[i] - mean[i]
		lp += -0.5 * (log2Pi + math.Log(v) + diff*diff/v)
	}
	return lp
}

// DiagMixture holds what the log densities of a diagonal-covariance
// Gaussian mixture share across rows: log π_c, each variance clamped below
// at minVar, and log2Pi + log(variance) per component and dimension.
// Building it once per E-step takes every math.Log out of the row loop.
type DiagMixture struct {
	means [][]float64
	logW  []float64 // log π_c, -Inf when π_c = 0
	vars  []float64 // clamped variances, k rows of d
	norm  []float64 // log2Pi + log(variance), k rows of d
	d     int
}

// NewDiagMixture computes the row-independent terms of the mixture with
// weights pi, means and per-dimension variances vars.
func NewDiagMixture(pi []float64, means, vars [][]float64, minVar float64) DiagMixture {
	k := len(pi)
	d := 0
	if k > 0 {
		d = len(vars[0])
	}
	buf := make([]float64, k+2*k*d)
	m := DiagMixture{means: means, logW: buf[:k], vars: buf[k : k+k*d], norm: buf[k+k*d:], d: d}
	for c, w := range pi {
		m.logW[c] = math.Inf(-1)
		if w > 0 {
			m.logW[c] = math.Log(w)
		}
		for j, v := range vars[c] {
			if v < minVar {
				v = minVar
			}
			m.vars[c*d+j] = v
			m.norm[c*d+j] = log2Pi + math.Log(v)
		}
	}
	return m
}

// LogJoint sets logp[c] to log π_c + DiagGaussianLogPDF(x, μ_c, v_c, minVar)
// for every component c. The row loop has DiagGaussianLogPDF's operands and
// statement shape, with log2Pi + math.Log(v) read from the table, so a
// platform that fuses multiply-adds fuses both alike and every value is
// bit-identical to the one-row form.
func (m *DiagMixture) LogJoint(x, logp []float64) {
	for c, lw := range m.logW {
		mean := m.means[c]
		v := m.vars[c*m.d : (c+1)*m.d]
		norm := m.norm[c*m.d : (c+1)*m.d]
		var lp float64
		for j, xj := range x {
			diff := xj - mean[j]
			lp += -0.5 * (norm[j] + diff*diff/v[j])
		}
		logp[c] = lw + lp
	}
}

// LogSumExp returns log(sum(exp(xs))) computed stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range xs {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}
