package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// Eigen holds a symmetric eigendecomposition A = V * diag(Values) * V^T with
// eigenvalues sorted in descending order and eigenvectors as the columns of
// Vectors.
type Eigen struct {
	Values  []float64
	Vectors *Matrix // column i is the eigenvector of Values[i]
}

// SymEigen computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi rotation method. It returns an error when a is not
// square or not symmetric. The input is not modified.
func SymEigen(a *Matrix) (*Eigen, error) {
	return SymEigenContext(context.Background(), a)
}

// SymEigenContext is SymEigen with cancellation: the Jacobi loop polls ctx
// at each sweep boundary and, when the context is done, returns the
// partially-converged decomposition wrapped in core.ErrInterrupted. With a
// background context the output is byte-identical to SymEigen.
func SymEigenContext(ctx context.Context, a *Matrix) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: SymEigen requires a square matrix")
	}
	if !a.IsSymmetric(1e-8 * (1 + a.FrobeniusNorm())) {
		return nil, errors.New("linalg: SymEigen requires a symmetric matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)

	rec := obs.From(ctx)
	var interrupted error
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sweep-boundary cancellation: w and v always hold a consistent
		// (if not fully converged) rotation product.
		if err := ctx.Err(); err != nil {
			interrupted = err
			break
		}
		rec.Count("linalg.eigen_sweeps", 1)
		// Sum of off-diagonal magnitudes; convergence criterion.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += math.Abs(w.At(i, j))
			}
		}
		if off == 0 || off < 1e-14*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle that zeroes w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation J(p,q,theta): W = J^T W J, V = V J.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	e := &Eigen{Values: sortedVals, Vectors: sortedVecs}
	if interrupted != nil {
		return e, fmt.Errorf("linalg: eigensolve interrupted: %v: %w", interrupted, core.ErrInterrupted)
	}
	return e, nil
}

// InvSqrt returns A^{-1/2} for a symmetric positive-definite matrix, computed
// via the eigendecomposition: V diag(1/sqrt(lambda)) V^T. Eigenvalues below
// eps are clamped to eps so nearly-singular scatter matrices stay usable; this
// is the standard regularization for the Qi & Davidson (2009) closed-form
// alternative transform.
func InvSqrt(a *Matrix, eps float64) (*Matrix, error) {
	e, err := SymEigen(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	d := make([]float64, n)
	for i, v := range e.Values {
		if v < eps {
			v = eps
		}
		d[i] = 1 / math.Sqrt(v)
	}
	return e.Vectors.Mul(Diag(d)).Mul(e.Vectors.T()), nil
}
