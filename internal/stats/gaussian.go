package stats

import "math"

const log2Pi = 1.8378770664093453 // log(2*pi)

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
