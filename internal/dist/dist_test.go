package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasicDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if Euclidean(a, b) != 5 {
		t.Errorf("Euclidean = %v", Euclidean(a, b))
	}
	if SqEuclidean(a, b) != 25 {
		t.Errorf("SqEuclidean = %v", SqEuclidean(a, b))
	}
}

func TestSubspace(t *testing.T) {
	a := []float64{0, 100, 0}
	b := []float64{3, -100, 4}
	if got := SqEuclideanSubspace(a, b, []int{0, 2}); got != 25 {
		t.Errorf("SqEuclideanSubspace over {0,2} = %v, want 25", got)
	}
	if got := SqEuclideanSubspace(a, b, []int{1}); got != 200*200 {
		t.Errorf("SqEuclideanSubspace = %v", got)
	}
}

func TestPairwiseMatrix(t *testing.T) {
	pts := [][]float64{{0, 0}, {3, 4}, {0, 1}}
	m := PairwiseMatrix(pts, Euclidean)
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 {
		t.Errorf("pairwise not symmetric/correct: %v", m)
	}
	if m.At(2, 2) != 0 {
		t.Error("diagonal must be 0")
	}
}

// Property: metric axioms (symmetry, identity, triangle) for Euclidean on
// random vectors.
func TestQuickMetricAxioms(t *testing.T) {
	d := Euclidean
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		vecs := make([][]float64, 3)
		for i := range vecs {
			vecs[i] = make([]float64, n)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
		}
		a, b, c := vecs[0], vecs[1], vecs[2]
		if !approxEq(d(a, b), d(b, a), 1e-12) {
			return false
		}
		if d(a, a) != 0 {
			return false
		}
		return d(a, c) <= d(a, b)+d(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The parallel pairwise matrix must be byte-identical to the serial one for
// every worker count.
func TestPairwiseMatrixWorkersDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	pts := make([][]float64, 61)
	for i := range pts {
		pts[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	}
	serial := PairwiseMatrixWorkers(pts, Euclidean, 1)
	for _, w := range []int{2, 4, 7} {
		par := PairwiseMatrixWorkers(pts, Euclidean, w)
		for i := range serial.Data {
			if serial.Data[i] != par.Data[i] {
				t.Fatalf("workers=%d: cell %d differs: %v vs %v", w, i, serial.Data[i], par.Data[i])
			}
		}
	}
}

// TestSqBoundIsLargest pins SqBound's definition: t is the largest float64
// whose square root is at most eps, across the whole exponent range.
func TestSqBoundIsLargest(t *testing.T) {
	eps := []float64{0, 0.05, 1, 1e-300, 4.9e-324, 1e154, 1e200, math.MaxFloat64, math.Inf(1)}
	for k := 1; k <= 1074; k++ {
		eps = append(eps, math.Ldexp(1, k%1024), math.Ldexp(1, -k))
	}
	for _, e := range eps {
		b := SqBound(e)
		if !(math.Sqrt(b) <= e) {
			t.Fatalf("eps=%g: Sqrt(SqBound)=%g exceeds eps", e, math.Sqrt(b))
		}
		if !math.IsInf(b, 1) && !(math.Sqrt(math.Nextafter(b, math.Inf(1))) > e) {
			t.Fatalf("eps=%g: SqBound=%g is not the largest passing value", e, b)
		}
	}
	for _, e := range []float64{-1, math.Inf(-1), math.NaN()} {
		if b := SqBound(e); !math.IsNaN(b) {
			t.Errorf("SqBound(%g) = %g, want NaN", e, b)
		}
	}
}

// TestSqBoundMatchesEuclidean is the seeded sweep behind the grid's and
// SUBCLU's squared ε-test: over 10^6 pairs, half of them placed at distance
// eps along a random direction, SqEuclidean <= SqBound(eps) must agree with
// Euclidean <= eps.
func TestSqBoundMatchesEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	boundary := 0
	for i := 0; i < 1_000_000; i++ {
		d := 1 + rng.Intn(6)
		eps := rng.Float64() * math.Pow(10, float64(rng.Intn(13)-6))
		a, b := make([]float64, d), make([]float64, d)
		var norm float64
		for j := range a {
			a[j] = (rng.Float64() - 0.5) * 4 * eps
			b[j] = rng.NormFloat64()
			norm += b[j] * b[j]
		}
		for j := range b {
			if i%2 == 0 {
				b[j] = a[j] + eps*b[j]/math.Sqrt(norm)
			} else {
				b[j] = a[j] + (rng.Float64()-0.5)*3*eps
			}
		}
		want := Euclidean(a, b) <= eps
		if got := SqEuclidean(a, b) <= SqBound(eps); got != want {
			t.Fatalf("pair %d (eps=%g a=%v b=%v): squared test %v, Euclidean test %v", i, eps, a, b, got, want)
		}
		if Euclidean(a, b) == eps {
			boundary++
		}
	}
	if boundary == 0 {
		t.Fatal("no pair landed exactly at distance eps")
	}
	t.Logf("%d pairs exactly at distance eps", boundary)
}
