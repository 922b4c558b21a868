// Package dist provides the distance functions used across paradigms,
// including the subspace-restricted Euclidean distance central to the
// subspace clustering section of the tutorial (slide 67):
//
//	dist_S(o, p) = sqrt( sum_{i in S} (o_i - p_i)^2 )
package dist

import (
	"math"

	"multiclust/internal/linalg"
	"multiclust/internal/parallel"
)

// Func is a distance between two equal-length vectors.
type Func func(a, b []float64) float64

// Euclidean returns the L2 distance.
func Euclidean(a, b []float64) float64 { return math.Sqrt(SqEuclidean(a, b)) }

// SqEuclidean returns the squared L2 distance.
func SqEuclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SqBound returns the largest float64 t with math.Sqrt(t) <= eps, so that
// SqEuclidean(a, b) <= t holds exactly when Euclidean(a, b) <= eps: an
// ε-test on squared distances with no square root per pair. It is exact
// because math.Sqrt is correctly rounded and therefore monotone, so the
// squared values that pass form the interval [0, t]; a NaN fails both
// tests. For a negative or NaN eps no value passes, and SqBound returns NaN.
func SqBound(eps float64) float64 {
	if !(eps >= 0) {
		return math.NaN()
	}
	t := eps * eps
	for math.Sqrt(t) > eps {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for !math.IsInf(t, 1) {
		next := math.Nextafter(t, math.Inf(1))
		if math.Sqrt(next) > eps {
			break
		}
		t = next
	}
	return t
}

// Manhattan returns the L1 distance.
func Manhattan(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Chebyshev returns the L∞ distance.
func Chebyshev(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Cosine returns 1 - cosine similarity; zero vectors are at distance 1 from
// everything (including each other), keeping the function total.
func Cosine(a, b []float64) float64 {
	na, nb := linalg.Norm(a), linalg.Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - linalg.Dot(a, b)/(na*nb)
}

// Subspace restricts base to the given dimensions.
func Subspace(dims []int, base Func) Func {
	return func(a, b []float64) float64 {
		pa := make([]float64, len(dims))
		pb := make([]float64, len(dims))
		for i, d := range dims {
			pa[i] = a[d]
			pb[i] = b[d]
		}
		return base(pa, pb)
	}
}

// SqEuclideanSubspace is the common special case of Subspace(dims,
// SqEuclidean) without the projection copies.
func SqEuclideanSubspace(a, b []float64, dims []int) float64 {
	var s float64
	for _, d := range dims {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// EuclideanSubspace is sqrt of SqEuclideanSubspace.
func EuclideanSubspace(a, b []float64, dims []int) float64 {
	return math.Sqrt(SqEuclideanSubspace(a, b, dims))
}

// Weighted returns the weighted Euclidean distance with per-dimension
// weights w: sqrt(sum_i w_i (a_i - b_i)^2). It is a metric for non-negative
// weights; square the result to recover the weighted squared form.
func Weighted(w []float64) Func {
	return func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += w[i] * d * d
		}
		return math.Sqrt(s)
	}
}

// Mahalanobis returns x ↦ sqrt((a-b)^T B (a-b)) for a positive semi-definite
// matrix B = M^T M; this is the ||·||_B norm of Qi & Davidson (2009,
// tutorial slide 54). Negative quadratic forms from numerical noise are
// clamped to zero.
func Mahalanobis(b *linalg.Matrix) Func {
	return func(x, y []float64) float64 {
		diff := linalg.SubVec(x, y)
		q := linalg.Dot(diff, b.MulVec(diff))
		if q < 0 {
			q = 0
		}
		return math.Sqrt(q)
	}
}

// Transformed returns the base distance measured after applying the linear
// map m to both arguments — distance in the transformed space of the
// orthogonal-transformation paradigm (tutorial section 3).
func Transformed(m *linalg.Matrix, base Func) Func {
	return func(a, b []float64) float64 {
		return base(m.MulVec(a), m.MulVec(b))
	}
}

// PairwiseMatrix materializes the n×n distance matrix of points under d,
// using the library-wide worker resolution (see internal/parallel).
func PairwiseMatrix(points [][]float64, d Func) *linalg.Matrix {
	return PairwiseMatrixWorkers(points, d, 0)
}

// PairwiseMatrixWorkers is PairwiseMatrix with an explicit worker count
// (<= 0 resolves via the parallel package). Rows are distributed through an
// atomic cursor because the upper-triangle loop is triangular: row i holds
// n-1-i distance evaluations, so static blocks would leave the first worker
// with most of the work. Each (i, j) cell is written exactly once, making
// the output byte-identical for every worker count.
func PairwiseMatrixWorkers(points [][]float64, d Func, workers int) *linalg.Matrix {
	n := len(points)
	out := linalg.NewMatrix(n, n)
	parallel.Each(n, workers, func(i int) {
		for j := i + 1; j < n; j++ {
			v := d(points[i], points[j])
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	})
	return out
}
