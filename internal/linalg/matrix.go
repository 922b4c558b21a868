// Package linalg provides the dense linear algebra needed by the clustering
// algorithms in this module: matrix arithmetic, Gaussian-elimination solves,
// Cholesky factorization, a cyclic-Jacobi symmetric eigendecomposition, a
// one-sided Jacobi SVD, and PCA helpers.
//
// All matrices are small (dimensions on the order of the data dimensionality,
// d <= a few hundred), so the implementations favour numerical robustness and
// clarity over asymptotic tricks. Everything is pure Go and allocation-honest:
// methods that can reuse a destination take one, and the rest document that
// they allocate.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-filled r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("linalg: FromRows requires at least one row")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := NewMatrix(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m (allocates).
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Sub returns m - b (allocates). Panics on shape mismatch.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Mul returns the matrix product m*b (allocates). Panics on shape mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x (allocates).
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// OuterInto adds s * x*y^T into m in place. Used to accumulate covariance
// and scatter matrices without intermediate allocations.
func (m *Matrix) OuterInto(s float64, x, y []float64) {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic("linalg: OuterInto shape mismatch")
	}
	for i, xv := range x {
		row := m.Row(i)
		sx := s * xv
		for j, yv := range y {
			row[j] += sx * yv
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsSymmetric reports whether m is symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		fmt.Fprintf(&b, "%v\n", m.Row(i))
	}
	return b.String()
}

func (m *Matrix) mustSameShape(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// RegularizeInPlace adds eps to the diagonal of a square matrix. Used to keep
// empirical covariances positive definite.
func RegularizeInPlace(a *Matrix, eps float64) {
	for i := 0; i < a.Rows; i++ {
		a.Data[i*a.Cols+i] += eps
	}
}
