package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm(x) != 5 {
		t.Errorf("Norm = %v, want 5", Norm(x))
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Errorf("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v, want [7 9]", y)
	}
	d := SubVec([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Errorf("SubVec = %v", d)
	}
	a := AddVec([]float64{1, 2}, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Errorf("AddVec = %v", a)
	}
	u := []float64{0, 3}
	if n := Normalize(u); n != 3 || u[1] != 1 {
		t.Errorf("Normalize returned %v, vec %v", n, u)
	}
	z := []float64{0, 0}
	if n := Normalize(z); n != 0 || z[0] != 0 {
		t.Errorf("Normalize of zero vector changed it")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated dims.
	x, _ := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	cov, mean := Covariance(x)
	if !approxEq(mean[0], 1.5, 1e-12) || !approxEq(mean[1], 1.5, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	// Sample variance of {0,1,2,3} is 5/3.
	want := 5.0 / 3.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !approxEq(cov.At(i, j), want, 1e-12) {
				t.Errorf("cov[%d][%d] = %v, want %v", i, j, cov.At(i, j), want)
			}
		}
	}
}

func TestCovarianceDegenerate(t *testing.T) {
	x, _ := FromRows([][]float64{{1, 2}})
	cov, mean := Covariance(x)
	if mean[0] != 1 || mean[1] != 2 {
		t.Errorf("mean = %v", mean)
	}
	if cov.FrobeniusNorm() != 0 {
		t.Error("single-point covariance should be zero")
	}
}

func TestPCARecoverDominantDirection(t *testing.T) {
	// Points along the (1,1)/sqrt2 direction with small orthogonal noise.
	rng := rand.New(rand.NewSource(20))
	rows := make([][]float64, 200)
	for i := range rows {
		tt := rng.NormFloat64() * 5
		n := rng.NormFloat64() * 0.1
		rows[i] = []float64{tt + n, tt - n}
	}
	x, _ := FromRows(rows)
	p, err := ComputePCA(x)
	if err != nil {
		t.Fatal(err)
	}
	dir := []float64{p.Components.At(0, 0), p.Components.At(1, 0)}
	// Should be ±(1,1)/sqrt2.
	want := 1 / math.Sqrt2
	if !approxEq(math.Abs(dir[0]), want, 0.02) || !approxEq(math.Abs(dir[1]), want, 0.02) {
		t.Errorf("dominant direction = %v, want ±[0.707 0.707]", dir)
	}
	if p.Variances[0] < 10*p.Variances[1] {
		t.Errorf("variance ratio too small: %v", p.Variances)
	}
}

func TestTopComponentsClamp(t *testing.T) {
	x, _ := FromRows([][]float64{{1, 2}, {2, 1}, {0, 0}})
	p, err := ComputePCA(x)
	if err != nil {
		t.Fatal(err)
	}
	c := p.TopComponents(10)
	if c.Cols != 2 {
		t.Errorf("TopComponents should clamp to d, got %d cols", c.Cols)
	}
}

func TestOrthogonalProjector(t *testing.T) {
	// Projector orthogonal to e1 in R^3 should zero the first coordinate.
	a := NewMatrix(3, 1)
	a.Set(0, 0, 1)
	p, err := OrthogonalProjector(a)
	if err != nil {
		t.Fatal(err)
	}
	v := p.MulVec([]float64{5, 2, 3})
	if !approxEq(v[0], 0, 1e-12) || !approxEq(v[1], 2, 1e-12) || !approxEq(v[2], 3, 1e-12) {
		t.Errorf("projection = %v, want [0 2 3]", v)
	}
	// Projector is idempotent.
	if !matricesApproxEq(p.Mul(p), p, 1e-10) {
		t.Error("projector not idempotent")
	}
}

func TestOrthogonalProjectorGeneralSubspace(t *testing.T) {
	// Subspace spanned by (1,1)/sqrt2 in R^2: the residual of any vector
	// must be orthogonal to the subspace.
	a := NewMatrix(2, 1)
	a.Set(0, 0, 1)
	a.Set(1, 0, 1)
	p, err := OrthogonalProjector(a)
	if err != nil {
		t.Fatal(err)
	}
	v := p.MulVec([]float64{3, 1})
	if !approxEq(v[0]+v[1], 0, 1e-12) {
		t.Errorf("residual %v not orthogonal to span{(1,1)}", v)
	}
}
