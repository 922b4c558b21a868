package metrics

import "testing"

// wideLabel spreads a fuzz byte over noise, ids below the labeling length,
// and sparse ids far beyond it, so both the slice and the map relabelling
// paths of the pair-counting kernel run.
func wideLabel(v byte) int {
	if v >= 128 {
		return int(v-128) * 500003
	}
	return int(v) - 2
}

// FuzzComparisonMeasures drives the pair-counting and information-theoretic
// comparison measures with arbitrary labelings and asserts their ranges and
// symmetry, whatever the input, and that the pair-counting kernel equals the
// pair-visiting reference exactly.
func FuzzComparisonMeasures(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1}, []byte{1, 1, 0, 0})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{255}, []byte{0})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n > 64 {
			n = 64
		}
		a := make([]int, n)
		b := make([]int, n)
		wa := make([]int, n)
		wb := make([]int, n)
		for i := 0; i < n; i++ {
			a[i] = int(rawA[i]%5) - 1 // includes Noise
			b[i] = int(rawB[i]%5) - 1
			wa[i], wb[i] = wideLabel(rawA[i]), wideLabel(rawB[i])
		}
		assertMatchesReference(t, a, b)
		assertMatchesReference(t, wa, wb)
		ri := RandIndex(a, b)
		if ri < 0 || ri > 1 {
			t.Fatalf("Rand out of range: %v", ri)
		}
		if ri != RandIndex(b, a) {
			t.Fatal("Rand not symmetric")
		}
		ari := AdjustedRand(a, b)
		if ari > 1+1e-9 {
			t.Fatalf("ARI above 1: %v", ari)
		}
		nmi := NMI(a, b)
		if nmi < 0 || nmi > 1+1e-9 {
			t.Fatalf("NMI out of range: %v", nmi)
		}
		vi := VariationOfInformation(a, b)
		if vi < 0 {
			t.Fatalf("VI negative: %v", vi)
		}
		j := JaccardIndex(a, b)
		if j < 0 || j > 1 {
			t.Fatalf("Jaccard out of range: %v", j)
		}
		p := Purity(a, b)
		if p < 0 || p > 1 {
			t.Fatalf("Purity out of range: %v", p)
		}
		f1 := PairF1(a, b)
		if f1 < 0 || f1 > 1+1e-9 {
			t.Fatalf("PairF1 out of range: %v", f1)
		}
	})
}
