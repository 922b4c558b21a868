package linalg

import (
	"errors"
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * V^T for an
// m×n matrix with m >= n: U is m×n with orthonormal columns, S has length n
// with non-negative values in descending order, and V is n×n orthogonal.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// ComputeSVD computes the thin SVD of a using the one-sided Jacobi method,
// which orthogonalizes the columns of a working copy of A by plane rotations.
// For m < n the decomposition of A^T is computed and the factors swapped.
// One-sided Jacobi is slow for large matrices but very accurate, which is the
// right trade-off for the small metric/scatter matrices used in this module.
func ComputeSVD(a *Matrix) (*SVD, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, errors.New("linalg: SVD of empty matrix")
	}
	if a.Rows < a.Cols {
		s, err := ComputeSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: s.V, S: s.S, V: s.U}, nil
	}
	m, n := a.Rows, a.Cols
	u := a.Clone()
	v := Identity(n)

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Column inner products.
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Column norms are the singular values; normalize U's columns.
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += u.At(i, j) * u.At(i, j)
		}
		norm = math.Sqrt(norm)
		sv[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)/norm)
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return sv[idx[i]] > sv[idx[j]] })
	su := NewMatrix(m, n)
	ss := make([]float64, n)
	vv := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		ss[newCol] = sv[oldCol]
		for i := 0; i < m; i++ {
			su.Set(i, newCol, u.At(i, oldCol))
		}
		for i := 0; i < n; i++ {
			vv.Set(i, newCol, v.At(i, oldCol))
		}
	}
	return &SVD{U: su, S: ss, V: vv}, nil
}

// InvertStretch returns U * diag(S)^{-1} * V^T: the same rotations with the
// stretch inverted. This is the "alternative transformation" of Davidson &
// Qi (2008): directions the learned metric stretched are compressed and vice
// versa, hiding the known clustering and revealing the orthogonal one.
// Singular values below eps are clamped to eps before inversion.
func (s *SVD) InvertStretch(eps float64) *Matrix {
	inv := make([]float64, len(s.S))
	for i, v := range s.S {
		if v < eps {
			v = eps
		}
		inv[i] = 1 / v
	}
	return s.U.Mul(Diag(inv)).Mul(s.V.T())
}
