package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEntropyKnown(t *testing.T) {
	if Entropy([]float64{1, 1}) != math.Ln2 {
		t.Errorf("H(uniform2) = %v, want ln2", Entropy([]float64{1, 1}))
	}
	if Entropy([]float64{1, 0}) != 0 {
		t.Errorf("H(point mass) should be 0")
	}
	if Entropy(nil) != 0 {
		t.Errorf("H(empty) should be 0")
	}
	if Entropy([]float64{0, 0}) != 0 {
		t.Errorf("H(all-zero) should be 0")
	}
	if !approxEq(Entropy2([]float64{1, 1, 1, 1}), 2, 1e-12) {
		t.Errorf("H2(uniform4) = %v, want 2 bits", Entropy2([]float64{1, 1, 1, 1}))
	}
}

func TestEntropyMaximizedByUniform(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1
		}
		return Entropy(w) <= Entropy(uniform)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustCT(t *testing.T, a, b []int) *ContingencyTable {
	t.Helper()
	ct, err := NewContingencyTable(a, b)
	if err != nil {
		t.Fatalf("NewContingencyTable: %v", err)
	}
	return ct
}

func TestContingencyIdenticalLabelings(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	ct := mustCT(t, a, a)
	if ct.Total != 6 {
		t.Fatalf("Total = %v", ct.Total)
	}
	if !approxEq(ct.MutualInformation(), ct.EntropyRow(), 1e-12) {
		t.Errorf("I(A;A) = %v, H(A) = %v", ct.MutualInformation(), ct.EntropyRow())
	}
	if !approxEq(NMI(ct), 1, 1e-12) {
		t.Errorf("NMI(A,A) = %v, want 1", NMI(ct))
	}
}

func TestContingencyIndependentLabelings(t *testing.T) {
	// Perfectly independent 2x2: each combination appears once.
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	ct := mustCT(t, a, b)
	if got := ct.MutualInformation(); !approxEq(got, 0, 1e-12) {
		t.Errorf("I(indep) = %v, want 0", got)
	}
	if !approxEq(NMI(ct), 0, 1e-12) {
		t.Errorf("NMI(indep) = %v, want 0", NMI(ct))
	}
}

func TestContingencyNoiseExcluded(t *testing.T) {
	a := []int{0, 0, -1, 1}
	b := []int{0, 0, 0, -1}
	ct := mustCT(t, a, b)
	if ct.Total != 2 {
		t.Errorf("Total = %v, want 2 (noise excluded)", ct.Total)
	}
}

// Rows and columns follow first-seen order over the non-noise objects, for
// dense ids and ids far beyond the labeling length alike; the entropy
// measures sum cells in this order, so it must not change.
func TestContingencyFirstSeenOrder(t *testing.T) {
	a := []int{7, -1, 2, 7, 900000, 2, 0}
	b := []int{3, 5, 1, 1, 3, -1, 8}
	ct := mustCT(t, a, b)
	want := &ContingencyTable{
		Counts:  [][]float64{{1, 1, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
		RowSums: []float64{2, 1, 1, 1},
		ColSums: []float64{2, 2, 1},
		Total:   5,
		RowIDs:  []int{7, 2, 900000, 0},
		ColIDs:  []int{3, 1, 8},
	}
	if !reflect.DeepEqual(ct, want) {
		t.Errorf("table = %+v\nwant    %+v", ct, want)
	}
}

func TestConditionalEntropy(t *testing.T) {
	// H(A|B) = H(A,B) - H(B); when A is a function of B, H(A|B)=0.
	a := []int{0, 0, 1, 1}
	b := []int{0, 0, 1, 1}
	ct := mustCT(t, a, b)
	if got := ct.ConditionalEntropyRowGivenCol(); !approxEq(got, 0, 1e-12) {
		t.Errorf("H(A|A) = %v, want 0", got)
	}
	// Independent: H(A|B) = H(A).
	b2 := []int{0, 1, 0, 1}
	ct2 := mustCT(t, a, b2)
	if got := ct2.ConditionalEntropyRowGivenCol(); !approxEq(got, ct2.EntropyRow(), 1e-12) {
		t.Errorf("H(A|B_indep) = %v, want H(A)=%v", got, ct2.EntropyRow())
	}
}

// Property: I(A;B) <= min(H(A), H(B)).
func TestQuickMIBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(4)
			b[i] = r.Intn(3)
		}
		ct := mustCT(t, a, b)
		mi := ct.MutualInformation()
		return mi <= ct.EntropyRow()+1e-9 && mi <= ct.EntropyCol()+1e-9 && mi >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiagGaussianLogPDF(t *testing.T) {
	// A diagonal Gaussian's log density is the sum of the univariate ones.
	x, mean, vars := []float64{0.5, 0.25}, []float64{1, -1}, []float64{2, 3}
	var want float64
	for i := range x {
		d := x[i] - mean[i]
		want += -0.5*math.Log(2*math.Pi*vars[i]) - d*d/(2*vars[i])
	}
	if got := DiagGaussianLogPDF(x, mean, vars, 1e-9); !approxEq(got, want, 1e-12) {
		t.Errorf("diag logpdf = %v, want %v", got, want)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp([]float64{0, 0}); !approxEq(got, math.Ln2, 1e-12) {
		t.Errorf("LSE = %v, want ln2", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LSE(empty) = %v, want -Inf", got)
	}
	if got := LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(got, -1) {
		t.Errorf("LSE(-Inf) = %v", got)
	}
	// Stability with large values.
	if got := LogSumExp([]float64{1000, 1000}); !approxEq(got, 1000+math.Ln2, 1e-9) {
		t.Errorf("LSE(large) = %v", got)
	}
}

func TestSchismThresholdDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for s := 1; s <= 10; s++ {
		cur := SchismThreshold(s, 10, 1000, 0.01)
		if cur >= prev {
			t.Fatalf("threshold not strictly decreasing at s=%d: %v >= %v", s, cur, prev)
		}
		prev = cur
	}
	// Asymptote is the Hoeffding slack.
	slack := math.Sqrt(math.Log(1/0.01) / 2000)
	if got := SchismThreshold(50, 10, 1000, 0.01); !approxEq(got, slack, 1e-9) {
		t.Errorf("threshold asymptote = %v, want %v", got, slack)
	}
}

func TestBinomialTails(t *testing.T) {
	if BinomialTailUpper(100, 10, 0.5) != 1 {
		t.Error("k/n <= p should return 1")
	}
	// Bound must upper-bound a crude simulation.
	rng := rand.New(rand.NewSource(42))
	n, p, k := 200, 0.1, 40
	exceed := 0
	const trials = 2000
	for tr := 0; tr < trials; tr++ {
		c := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				c++
			}
		}
		if c >= k {
			exceed++
		}
	}
	bound := BinomialTailUpper(n, k, p)
	if emp := float64(exceed) / trials; emp > bound+0.01 {
		t.Errorf("empirical %v exceeds bound %v", emp, bound)
	}
}

// Property: BinomialTailUpper is monotone non-increasing in k.
func TestQuickBinomialTailMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(200)
		p := 0.05 + r.Float64()*0.4
		prev := 2.0
		for k := 0; k <= n; k += 1 + n/20 {
			b := BinomialTailUpper(n, k, p)
			if b > prev+1e-12 {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SchismThreshold is strictly decreasing in the dimensionality and
// bounded below by the Hoeffding slack.
func TestQuickSchismThresholdShape(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xi := 2 + r.Intn(10)
		n := 50 + r.Intn(1000)
		tau := 0.001 + r.Float64()*0.2
		slack := math.Sqrt(math.Log(1/tau) / (2 * float64(n)))
		prev := math.Inf(1)
		for s := 1; s <= 8; s++ {
			v := SchismThreshold(s, xi, n, tau)
			if v >= prev || v < slack-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
