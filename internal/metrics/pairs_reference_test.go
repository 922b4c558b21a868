package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"multiclust/internal/stats"
)

// countPairsReference is the original CountPairs — every object pair visited
// once, O(n²) — kept verbatim as the oracle for the contingency-sum kernel.
func countPairsReference(x, y []int) PairCounts {
	var pc PairCounts
	if len(x) != len(y) {
		return pc
	}
	n := len(x)
	for i := 0; i < n; i++ {
		if x[i] < 0 || y[i] < 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if x[j] < 0 || y[j] < 0 {
				continue
			}
			sx := x[i] == x[j]
			sy := y[i] == y[j]
			switch {
			case sx && sy:
				pc.A++
			case sx && !sy:
				pc.B++
			case !sx && sy:
				pc.C++
			default:
				pc.D++
			}
		}
	}
	return pc
}

// adjustedRandReference is the original AdjustedRand over a dense
// stats.ContingencyTable, kept verbatim as the oracle for the kernel-based
// version.
func adjustedRandReference(x, y []int) float64 {
	ct, err := stats.NewContingencyTable(x, y)
	if err != nil {
		return math.NaN()
	}
	var sumComb, sumRow, sumCol float64
	for _, row := range ct.Counts {
		for _, nij := range row {
			sumComb += comb2(nij)
		}
	}
	for _, r := range ct.RowSums {
		sumRow += comb2(r)
	}
	for _, c := range ct.ColSums {
		sumCol += comb2(c)
	}
	total := comb2(ct.Total)
	if total == 0 {
		return 1
	}
	expected := sumRow * sumCol / total
	maxIdx := 0.5 * (sumRow + sumCol)
	den := maxIdx - expected
	if den == 0 {
		return 1 // both partitions trivial
	}
	return (sumComb - expected) / den
}

func comb2(n float64) float64 { return n * (n - 1) / 2 }

// assertMatchesReference fails t unless CountPairs equals the pair-visiting
// oracle field for field and AdjustedRand equals its oracle bit for bit.
func assertMatchesReference(t *testing.T, x, y []int) {
	t.Helper()
	if got, want := CountPairs(x, y), countPairsReference(x, y); got != want {
		t.Fatalf("CountPairs = %+v, reference %+v\nx=%v\ny=%v", got, want, x, y)
	}
	if got, want := AdjustedRand(x, y), adjustedRandReference(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AdjustedRand = %v, reference %v\nx=%v\ny=%v", got, want, x, y)
	}
}

// randomLabeling draws n labels from k clusters with ids spread by stride,
// turning each object into noise with probability noise.
func randomLabeling(r *rand.Rand, n, k, stride int, noise float64) []int {
	l := make([]int, n)
	for i := range l {
		if r.Float64() < noise {
			l[i] = -1 - r.Intn(3)
			continue
		}
		l[i] = r.Intn(k) * stride
	}
	return l
}

// Property: the contingency-sum kernel reproduces the pair-visiting loop
// exactly, across noise shares, cluster counts up to n (singletons), and
// ids that are dense, sparse, or far beyond n.
func TestCountPairsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(150)
		stride := []int{1, 1, 3, 500003}[r.Intn(4)]
		noise := []float64{0, 0, 0.1, 0.5}[r.Intn(4)]
		x := randomLabeling(r, n, 1+r.Intn(n+1), stride, noise)
		y := randomLabeling(r, n, 1+r.Intn(n+1), stride, noise)
		if trial%10 == 0 { // all singletons in x
			for i := range x {
				x[i] = i * stride
			}
		}
		assertMatchesReference(t, x, y)
	}
	assertMatchesReference(t, nil, nil)
	assertMatchesReference(t, []int{0, 1}, []int{0})
}

// Two all-singleton labelings of jobs.MaxPoints objects: no pair is together
// in either, so the closed form is A = B = C = 0 and D = C(n, 2). The
// pair-visiting loop needed ~2·10¹⁰ steps here; the kernel is linear.
func TestCountPairsAllSingletonsAtMaxPoints(t *testing.T) {
	const n = 200000
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i], y[i] = i, n-1-i
	}
	want := PairCounts{D: n * (n - 1) / 2}
	if got := CountPairs(x, y); got != want {
		t.Fatalf("CountPairs(singletons) = %+v, want %+v", got, want)
	}
}

// RandIndex on in-range labels allocates a fixed handful of scratch slices,
// whatever n and k: a regression to per-pair maps or a row-per-cluster
// table would show here as allocations growing with n or k.
func TestRandIndexAllocsBounded(t *testing.T) {
	const maxAllocs = 5
	for _, n := range []int{300, 3000} {
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = i%40, (i*7)%50
		}
		allocs := testing.AllocsPerRun(20, func() { benchSink = RandIndex(x, y) })
		if allocs > maxAllocs {
			t.Errorf("RandIndex at n=%d: %v allocs per call, want <= %d", n, allocs, maxAllocs)
		}
	}
}

var benchSink float64

func BenchmarkRandIndex(b *testing.B) {
	for _, n := range []int{300, 3000, 30000} {
		r := rand.New(rand.NewSource(1))
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(4), r.Intn(4)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = RandIndex(x, y)
			}
		})
	}
}
