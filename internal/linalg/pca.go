package linalg

import "errors"

// Covariance returns the d×d sample covariance matrix of the n×d data matrix
// (rows are observations), together with the column means. With fewer than
// two rows the covariance is the zero matrix.
func Covariance(x *Matrix) (*Matrix, []float64) {
	n, d := x.Rows, x.Cols
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		Axpy(1, x.Row(i), mean)
	}
	if n > 0 {
		ScaleVec(1/float64(n), mean)
	}
	cov := NewMatrix(d, d)
	if n < 2 {
		return cov, mean
	}
	centered := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := 0; j < d; j++ {
			centered[j] = row[j] - mean[j]
		}
		cov.OuterInto(1, centered, centered)
	}
	for i := range cov.Data {
		cov.Data[i] /= float64(n - 1)
	}
	return cov, mean
}

// PCA holds a principal component analysis of a data matrix.
type PCA struct {
	Mean       []float64
	Components *Matrix   // d×d, column i is the i-th principal direction
	Variances  []float64 // descending eigenvalues of the covariance
}

// ComputePCA runs PCA on the n×d data matrix (rows are observations).
func ComputePCA(x *Matrix) (*PCA, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("linalg: PCA of empty matrix")
	}
	cov, mean := Covariance(x)
	e, err := SymEigen(cov)
	if err != nil {
		return nil, err
	}
	return &PCA{Mean: mean, Components: e.Vectors, Variances: e.Values}, nil
}

// TopComponents returns the d×k matrix whose columns are the first k
// principal directions.
func (p *PCA) TopComponents(k int) *Matrix {
	d := p.Components.Rows
	if k > d {
		k = d
	}
	out := NewMatrix(d, k)
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			out.Set(i, j, p.Components.At(i, j))
		}
	}
	return out
}

// OrthogonalProjector returns the d×d matrix I - A (A^T A)^{-1} A^T that
// projects onto the orthogonal complement of the column space of a. This is
// the space transformation of Cui, Fern & Dy (2007): after projecting the
// data with it, structure captured by the columns of a (e.g. the principal
// components of the current clustering's means) is removed.
func OrthogonalProjector(a *Matrix) (*Matrix, error) {
	ata := a.T().Mul(a)
	inv, err := Inverse(ata)
	if err != nil {
		return nil, err
	}
	p := a.Mul(inv).Mul(a.T())
	return Identity(a.Rows).Sub(p), nil
}
