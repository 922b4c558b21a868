package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a matrix is singular (or numerically so) and
// the requested factorization or solve cannot proceed.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign float64
}

// Factorize computes the LU factorization of the square matrix a with
// partial pivoting. It returns ErrSingular if a pivot is exactly zero.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Factorize requires a square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot: pick the row with the largest |value| in column k.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A*x = b using the factorization (allocates x).
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: LU.Solve length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		for j := 0; j < i; j++ {
			x[i] -= ri[j] * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		for j := i + 1; j < n; j++ {
			x[i] -= ri[j] * x[j]
		}
		x[i] /= ri[i]
	}
	return x
}

// Solve solves the linear system a*x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns the inverse of the square matrix a.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}
