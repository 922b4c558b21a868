// Package stats provides the information-theoretic and probabilistic
// primitives shared by the clustering algorithms: entropy, mutual
// information, contingency tables, diagonal Gaussian mixture densities, the
// SCHISM density threshold and a binomial tail bound.
package stats

import "math"

// Entropy returns the Shannon entropy (in nats) of a discrete distribution
// given as unnormalized non-negative weights. Zero weights contribute zero.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / total
		h -= p * math.Log(p)
	}
	return h
}

// Entropy2 is Entropy measured in bits.
func Entropy2(weights []float64) float64 { return Entropy(weights) / math.Ln2 }
