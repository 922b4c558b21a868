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

// SqEuclideanSubspace is the squared Euclidean distance restricted to the
// given dimensions.
func SqEuclideanSubspace(a, b []float64, dims []int) float64 {
	var s float64
	for _, d := range dims {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
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
