package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesApproxEq(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !approxEq(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := a.Mul(a.T())
	RegularizeInPlace(spd, 0.5)
	return spd
}

func TestFromRowsAndAccess(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set did not stick")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows with ragged rows should fail")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	if !matricesApproxEq(a.Mul(Identity(4)), a, 1e-12) {
		t.Error("A*I != A")
	}
	if !matricesApproxEq(Identity(4).Mul(a), a, 1e-12) {
		t.Error("I*A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !matricesApproxEq(got, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 5)
	if !matricesApproxEq(a.T().T(), a, 0) {
		t.Error("(A^T)^T != A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 3)
	x := []float64{1, -2, 0.5}
	xm := NewMatrix(3, 1)
	copy(xm.Data, x)
	got := a.MulVec(x)
	want := a.Mul(xm)
	for i := range got {
		if !approxEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestOuterInto(t *testing.T) {
	m := NewMatrix(2, 3)
	m.OuterInto(2, []float64{1, 2}, []float64{3, 4, 5})
	want, _ := FromRows([][]float64{{6, 8, 10}, {12, 16, 20}})
	if !matricesApproxEq(m, want, 1e-12) {
		t.Errorf("OuterInto = %v, want %v", m, want)
	}
}

func TestTraceAndNorm(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0}, {0, 4}})
	if trace(a) != 7 {
		t.Errorf("trace = %v, want 7", trace(a))
	}
	if !approxEq(a.FrobeniusNorm(), 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v, want 5", a.FrobeniusNorm())
	}
}

func TestSub(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	want, _ := FromRows([][]float64{{-3, -1}, {1, 3}})
	if diff := a.Sub(b); !matricesApproxEq(diff, want, 0) {
		t.Errorf("Sub = %v", diff)
	}
}

// Property: matrix multiplication distributes over subtraction.
func TestQuickMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 2)
		c := randomMatrix(r, 4, 2)
		left := a.Mul(b.Sub(c))
		right := a.Mul(b).Sub(a.Mul(c))
		return matricesApproxEq(left, right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 5)
		b := randomMatrix(r, 5, 2)
		return matricesApproxEq(a.Mul(b).T(), b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {2, 3}})
	if !s.IsSymmetric(1e-12) {
		t.Error("symmetric matrix not recognized")
	}
	a, _ := FromRows([][]float64{{1, 2}, {0, 3}})
	if a.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix misclassified")
	}
	r := NewMatrix(2, 3)
	if r.IsSymmetric(1e-12) {
		t.Error("non-square matrix cannot be symmetric")
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Diag wrong: %v", d)
	}
}
