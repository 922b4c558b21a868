package stats

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"multiclust/internal/core"
	"multiclust/internal/linalg"
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

func TestLabelEntropy(t *testing.T) {
	if got := LabelEntropy([]int{0, 0, 1, 1}); !approxEq(got, math.Ln2, 1e-12) {
		t.Errorf("LabelEntropy = %v", got)
	}
	// Noise labels are ignored.
	if got := LabelEntropy([]int{0, 0, -1, -1}); got != 0 {
		t.Errorf("LabelEntropy with noise = %v, want 0", got)
	}
}

// mustKL/mustJS/mustCT unwrap the error-returning constructors for the
// equal-length inputs these tests use.
func mustKL(t *testing.T, p, q []float64) float64 {
	t.Helper()
	v, err := KLDiscrete(p, q)
	if err != nil {
		t.Fatalf("KLDiscrete: %v", err)
	}
	return v
}

func mustJS(t *testing.T, p, q []float64) float64 {
	t.Helper()
	v, err := JensenShannon(p, q)
	if err != nil {
		t.Fatalf("JensenShannon: %v", err)
	}
	return v
}

func mustCT(t *testing.T, a, b []int) *ContingencyTable {
	t.Helper()
	ct, err := NewContingencyTable(a, b)
	if err != nil {
		t.Fatalf("NewContingencyTable: %v", err)
	}
	return ct
}

func TestKLDiscrete(t *testing.T) {
	if got := mustKL(t, []float64{1, 1}, []float64{1, 1}); !approxEq(got, 0, 1e-12) {
		t.Errorf("KL(p||p) = %v", got)
	}
	if got := mustKL(t, []float64{1, 0}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("KL with missing support = %v, want +Inf", got)
	}
	// KL is non-negative.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = r.Float64() + 0.01
			q[i] = r.Float64() + 0.01
		}
		kl, err := KLDiscrete(p, q)
		return err == nil && kl >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKLDiscreteShapeMismatch(t *testing.T) {
	if _, err := KLDiscrete([]float64{1}, []float64{1, 2}); !errors.Is(err, core.ErrShape) {
		t.Errorf("KLDiscrete mismatch: err = %v, want ErrShape", err)
	}
}

func TestJensenShannon(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	if got := mustJS(t, p, q); !approxEq(got, math.Ln2, 1e-12) {
		t.Errorf("JS(disjoint) = %v, want ln2", got)
	}
	if got := mustJS(t, p, p); !approxEq(got, 0, 1e-12) {
		t.Errorf("JS(p,p) = %v, want 0", got)
	}
	// Symmetry.
	a := []float64{0.2, 0.5, 0.3}
	b := []float64{0.6, 0.1, 0.3}
	if !approxEq(mustJS(t, a, b), mustJS(t, b, a), 1e-12) {
		t.Error("JS not symmetric")
	}
}

func TestJensenShannonShapeMismatch(t *testing.T) {
	if _, err := JensenShannon([]float64{1}, []float64{1, 2}); !errors.Is(err, core.ErrShape) {
		t.Errorf("JensenShannon mismatch: err = %v, want ErrShape", err)
	}
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
	if !approxEq(ct.Uniformity(), 0, 1e-12) {
		t.Errorf("Uniformity(A,A) = %v, want 0", ct.Uniformity())
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
	if !approxEq(ct.Uniformity(), 1, 1e-12) {
		t.Errorf("Uniformity(indep) = %v, want 1", ct.Uniformity())
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

func TestGaussianPDFStandardNormal(t *testing.T) {
	cov := linalg.Identity(2)
	g, err := NewGaussian([]float64{0, 0}, cov, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2 * math.Pi)
	if got := g.PDF([]float64{0, 0}); !approxEq(got, want, 1e-12) {
		t.Errorf("pdf(0) = %v, want %v", got, want)
	}
	if got := g.Mahalanobis([]float64{3, 4}); !approxEq(got, 5, 1e-12) {
		t.Errorf("Mahalanobis = %v, want 5", got)
	}
}

func TestGaussianShapeError(t *testing.T) {
	if _, err := NewGaussian([]float64{0}, linalg.Identity(2), 0); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestKLGaussians(t *testing.T) {
	g1, _ := NewGaussian([]float64{0, 0}, linalg.Identity(2), 0)
	g2, _ := NewGaussian([]float64{1, 0}, linalg.Identity(2), 0)
	// KL between unit Gaussians with mean shift m is |m|^2/2.
	if got := KLGaussians(g1, g2); !approxEq(got, 0.5, 1e-10) {
		t.Errorf("KL = %v, want 0.5", got)
	}
	if got := KLGaussians(g1, g1); !approxEq(got, 0, 1e-10) {
		t.Errorf("KL(p||p) = %v, want 0", got)
	}
}

func TestDiagGaussianLogPDF(t *testing.T) {
	// Matches full-covariance Gaussian when covariance is diagonal.
	g, _ := NewGaussian([]float64{1, -1}, linalg.Diag([]float64{2, 3}), 0)
	x := []float64{0.5, 0.25}
	got := DiagGaussianLogPDF(x, []float64{1, -1}, []float64{2, 3}, 1e-9)
	if !approxEq(got, g.LogPDF(x), 1e-10) {
		t.Errorf("diag logpdf = %v, full = %v", got, g.LogPDF(x))
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

func TestHoeffdingTail(t *testing.T) {
	if HoeffdingTail(10, 0) != 1 {
		t.Error("t=0 should give trivial bound 1")
	}
	if got := HoeffdingTail(100, 0.1); !approxEq(got, math.Exp(-2), 1e-12) {
		t.Errorf("Hoeffding = %v", got)
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
	if BinomialTailLower(100, 60, 0.5) != 1 {
		t.Error("k/n >= p should return 1")
	}
	if got := BinomialTailLower(100, 10, 0.5); got >= 1e-5 {
		t.Errorf("lower tail bound too weak: %v", got)
	}
}

func TestKDE(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Error("empty KDE should fail")
	}
	// Unimodal data: density at the mode exceeds density far away.
	samples := []float64{-0.1, 0, 0.1, 0.05, -0.05}
	k, err := NewKDE(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Density(0) <= k.Density(5) {
		t.Error("KDE density at mode should exceed density in the tail")
	}
	prof := k.Profile(16)
	if len(prof) != 16 {
		t.Fatalf("profile length %d", len(prof))
	}
	// KDE integrates to roughly 1 (trapezoid over a wide window).
	lo, hi := -3.0, 3.0
	m := 2000
	var integral float64
	step := (hi - lo) / float64(m)
	for i := 0; i < m; i++ {
		integral += k.Density(lo+(float64(i)+0.5)*step) * step
	}
	if !approxEq(integral, 1, 0.02) {
		t.Errorf("KDE integral = %v, want about 1", integral)
	}
}

func TestKDEConstantSamples(t *testing.T) {
	k, err := NewKDE([]float64{2, 2, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Bandwidth <= 0 {
		t.Error("bandwidth must stay positive for constant samples")
	}
}

func TestHistogram(t *testing.T) {
	// Bins are half-open [lo, lo+w), so 0.5 falls in the second bin.
	h := Histogram([]float64{0, 0.5, 1, 1, 1}, 2)
	if h[0] != 1 || h[1] != 4 {
		t.Errorf("Histogram = %v, want [1 4]", h)
	}
	h = Histogram([]float64{0, 0.4, 1, 1, 1}, 2)
	if h[0] != 2 || h[1] != 3 {
		t.Errorf("Histogram = %v, want [2 3]", h)
	}
	if h := Histogram(nil, 3); h[0] != 0 {
		t.Errorf("empty histogram = %v", h)
	}
	h = Histogram([]float64{7, 7, 7}, 3)
	if h[0] != 3 {
		t.Errorf("constant histogram = %v, want all in first bin", h)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if got := Quantile(v, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Quantile(v, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty should be NaN")
	}
}

// Property: Jensen–Shannon divergence is bounded by ln 2 and non-negative.
func TestQuickJSBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
			q[i] = r.Float64()
		}
		js, err := JensenShannon(p, q)
		return err == nil && js >= -1e-12 && js <= math.Ln2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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
