package stats

import "math"

// SchismThreshold returns the SCHISM support threshold τ(s) for an
// s-dimensional grid cell, as a fraction of the database size:
//
//	τ(s) = (1/ξ)^s + sqrt( ln(1/τ) / (2 n) )
//
// where ξ is the number of intervals per dimension, n the database size and
// τ the significance level. The first term is the expected fraction of
// points in an s-dimensional cell under the uniform-independence null; the
// second is the Hoeffding slack guaranteeing Pr[X_s >= n·τ(s)] <= τ. The
// threshold decreases monotonically in s, which is the property the tutorial
// highlights (slide 73): fixed grid thresholds starve high-dimensional cells.
func SchismThreshold(s int, xi int, n int, tau float64) float64 {
	if xi < 1 {
		xi = 1
	}
	expected := math.Pow(1/float64(xi), float64(s))
	slack := math.Sqrt(math.Log(1/tau) / (2 * float64(n)))
	return expected + slack
}

// BinomialTailUpper returns an upper bound on Pr[X >= k] for
// X ~ Binomial(n, p), using the Chernoff–Hoeffding relative-entropy bound
//
//	Pr[X >= k] <= exp(-n * D(k/n || p))  for k/n > p,
//
// where D is the Bernoulli KL divergence. It returns 1 when k/n <= p.
// STATPC-style significance tests use this to decide whether a region holds
// significantly more points than a model explains.
func BinomialTailUpper(n, k int, p float64) float64 {
	if n <= 0 || k <= 0 {
		return 1
	}
	q := float64(k) / float64(n)
	if q <= p {
		return 1
	}
	if p <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Exp(float64(n) * math.Log(p))
	}
	d := q*math.Log(q/p) + (1-q)*math.Log((1-q)/(1-p))
	return math.Exp(-float64(n) * d)
}
