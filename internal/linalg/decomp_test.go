package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5
	if !approxEq(x[0], 0.8, 1e-12) || !approxEq(x[1], 1.4, 1e-12) {
		t.Errorf("Solve = %v, want [0.8 1.4]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("Solve of singular matrix should fail")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, n)
		RegularizeInPlace(a, 2) // keep well-conditioned
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		if !matricesApproxEq(a.Mul(inv), Identity(n), 1e-8) {
			t.Fatalf("A*A^{-1} != I for n=%d", n)
		}
	}
}

func TestDetKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if !approxEq(det(a), -2, 1e-12) {
		t.Errorf("det = %v, want -2", det(a))
	}
	sing, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	if det(sing) != 0 {
		t.Errorf("det(singular) = %v, want 0", det(sing))
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		e, err := SymEigen(a)
		if err != nil {
			t.Fatalf("SymEigen: %v", err)
		}
		rec := e.Vectors.Mul(Diag(e.Values)).Mul(e.Vectors.T())
		if !matricesApproxEq(rec, a, 1e-7) {
			t.Fatalf("eigendecomposition does not reconstruct A (n=%d)", n)
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", e.Values)
			}
		}
		// Eigenvectors orthonormal.
		vtv := e.Vectors.T().Mul(e.Vectors)
		if !matricesApproxEq(vtv, Identity(n), 1e-7) {
			t.Fatal("eigenvectors not orthonormal")
		}
	}
}

func TestSymEigenKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(e.Values[0], 3, 1e-10) || !approxEq(e.Values[1], 1, 1e-10) {
		t.Errorf("eigenvalues = %v, want [3 1]", e.Values)
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 5}, {0, 1}})
	if _, err := SymEigen(a); err == nil {
		t.Error("SymEigen of asymmetric matrix should fail")
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := [][2]int{{4, 4}, {6, 3}, {3, 6}, {1, 5}, {5, 1}}
	for _, sh := range shapes {
		a := randomMatrix(rng, sh[0], sh[1])
		s, err := ComputeSVD(a)
		if err != nil {
			t.Fatalf("SVD(%v): %v", sh, err)
		}
		if !matricesApproxEq(s.U.Mul(Diag(s.S)).Mul(s.V.T()), a, 1e-8) {
			t.Fatalf("SVD does not reconstruct for shape %v", sh)
		}
		for i := 1; i < len(s.S); i++ {
			if s.S[i] > s.S[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", s.S)
			}
		}
		for _, v := range s.S {
			if v < 0 {
				t.Fatalf("negative singular value: %v", s.S)
			}
		}
	}
}

func TestSVDSingularValuesMatchEigen(t *testing.T) {
	// Singular values of A are sqrt of eigenvalues of A^T A.
	rng := rand.New(rand.NewSource(16))
	a := randomMatrix(rng, 5, 3)
	s, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	e, err := SymEigen(a.T().Mul(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.S {
		if !approxEq(s.S[i]*s.S[i], e.Values[i], 1e-7) {
			t.Errorf("sv[%d]^2 = %v, eig = %v", i, s.S[i]*s.S[i], e.Values[i])
		}
	}
}

func TestInvertStretch(t *testing.T) {
	// For the worked example in the tutorial (slide 51): D = H S A with
	// inverted stretch M = H S^{-1} A. Check M * D has the same singular
	// vectors but unit-ish products of stretches: SVD(D).InvertStretch
	// applied to a diagonal matrix inverts the diagonal.
	d := Diag([]float64{4, 0.25})
	s, err := ComputeSVD(d)
	if err != nil {
		t.Fatal(err)
	}
	m := s.InvertStretch(1e-12)
	want := Diag([]float64{0.25, 4})
	if !matricesApproxEq(m, want, 1e-8) {
		t.Errorf("InvertStretch = %v, want %v", m, want)
	}
}

func TestInvSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 4)
	is, err := InvSqrt(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// (A^{-1/2})^2 * A should be I.
	if !matricesApproxEq(is.Mul(is).Mul(a), Identity(4), 1e-6) {
		t.Error("InvSqrt squared times A is not the identity")
	}
}

// Property: solving then multiplying returns the original vector.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if !approxEq(ax[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
