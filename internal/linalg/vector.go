package linalg

import "math"

// Dot returns the inner product of x and y. Panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm returns the Euclidean norm of x.
func Norm(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// SubVec returns x - y (allocates).
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: SubVec length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// AddVec returns x + y (allocates).
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: AddVec length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// Normalize scales x in place to unit Euclidean norm. A zero vector is left
// unchanged. It returns the original norm.
func Normalize(x []float64) float64 {
	n := Norm(x)
	if n > 0 {
		ScaleVec(1/n, x)
	}
	return n
}
