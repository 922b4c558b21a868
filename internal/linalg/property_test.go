package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// det returns the determinant of the square matrix a from its LU
// factorization, or 0 if a is singular: the reference TestQuickSVDDet
// checks the singular values against.
func det(a *Matrix) float64 {
	f, err := Factorize(a)
	if err != nil {
		return 0
	}
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// trace returns the sum of the diagonal of a: the reference
// TestQuickEigenTrace checks the eigenvalues against.
func trace(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		s += a.At(i, i)
	}
	return s
}

// Property: det(A*B) == det(A)*det(B).
func TestQuickDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		da, db, dab := det(a), det(b), det(a.Mul(b))
		return math.Abs(dab-da*db) <= 1e-6*(1+math.Abs(da*db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: (A^{-1})^T == (A^T)^{-1}.
func TestQuickInverseTransposeCommute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a := randomMatrix(r, n, n)
		RegularizeInPlace(a, 2)
		invA, err := Inverse(a)
		if err != nil {
			return false
		}
		invAT, err := Inverse(a.T())
		if err != nil {
			return false
		}
		return matricesApproxEq(invA.T(), invAT, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalues of an SPD matrix are positive and their sum equals
// the trace.
func TestQuickEigenTrace(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := randomSPD(r, n)
		e, err := SymEigen(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range e.Values {
			if v <= 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-trace(a)) <= 1e-7*(1+math.Abs(trace(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the product of singular values equals |det| for square matrices.
func TestQuickSVDDet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a := randomMatrix(r, n, n)
		s, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		prod := 1.0
		for _, v := range s.S {
			prod *= v
		}
		return math.Abs(prod-math.Abs(det(a))) <= 1e-6*(1+prod)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: OrthogonalProjector output P satisfies P^2 = P and P*A = 0.
func TestQuickProjectorAnnihilates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4)
		k := 1 + r.Intn(d-1)
		a := randomMatrix(r, d, k)
		p, err := OrthogonalProjector(a)
		if err != nil {
			return true // singular A^T A: acceptable rejection
		}
		if !matricesApproxEq(p.Mul(p), p, 1e-7) {
			return false
		}
		pa := p.Mul(a)
		return pa.FrobeniusNorm() <= 1e-7*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
