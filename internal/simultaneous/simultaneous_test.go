package simultaneous

import (
	"math"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/linalg"
	"multiclust/internal/metrics"
)

func TestDecKMeansFindsBothToyViews(t *testing.T) {
	ds, hor, ver := dataset.FourBlobToy(1, 25)
	res, err := DecKMeans(ds.Points, DecKMeansConfig{Ks: []int{2, 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusterings) != 2 {
		t.Fatalf("clusterings = %d", len(res.Clusterings))
	}
	// One clustering should match the horizontal view, the other the
	// vertical, in either order.
	a0h := metrics.AdjustedRand(hor, res.Clusterings[0].Labels)
	a0v := metrics.AdjustedRand(ver, res.Clusterings[0].Labels)
	a1h := metrics.AdjustedRand(hor, res.Clusterings[1].Labels)
	a1v := metrics.AdjustedRand(ver, res.Clusterings[1].Labels)
	match := math.Max(math.Min(a0h, a1v), math.Min(a0v, a1h))
	if match < 0.8 {
		t.Errorf("views not recovered: %v %v %v %v", a0h, a0v, a1h, a1v)
	}
	// The two solutions must be nearly independent.
	if mi := metrics.NMI(res.Clusterings[0].Labels, res.Clusterings[1].Labels); mi > 0.3 {
		t.Errorf("solutions too correlated: NMI=%v", mi)
	}
}

func TestDecKMeansLambdaDecorrelates(t *testing.T) {
	// With lambda ~ 0 both clusterings are free to collapse onto the same
	// dominant structure; with large lambda the representative penalty
	// forces decorrelation. Compare NMI between the two solutions.
	ds, _, _ := dataset.FourBlobToy(3, 25)
	free, err := DecKMeans(ds.Points, DecKMeansConfig{Ks: []int{2, 2}, Lambda: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tied, err := DecKMeans(ds.Points, DecKMeansConfig{Ks: []int{2, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nmiFree := metrics.NMI(free.Clusterings[0].Labels, free.Clusterings[1].Labels)
	nmiTied := metrics.NMI(tied.Clusterings[0].Labels, tied.Clusterings[1].Labels)
	if nmiTied > nmiFree+1e-9 {
		t.Errorf("lambda should not increase inter-solution NMI: free=%v tied=%v", nmiFree, nmiTied)
	}
}

// cosineSim returns the cosine similarity of x and y, or 0 if either has
// zero norm.
func cosineSim(x, y []float64) float64 {
	nx, ny := linalg.Norm(x), linalg.Norm(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return linalg.Dot(x, y) / (nx * ny)
}

func TestDecKMeansRepresentativesOrthogonal(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(5, 25)
	res, err := DecKMeans(ds.Points, DecKMeansConfig{Ks: []int{2, 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// In centered coordinates the cross inner products (mean_j, r_i) should
	// be small; verify via the means returned (centered internally, shifted
	// back — recenter here).
	center := []float64{0.5, 0.5}
	var maxCos float64
	for _, r := range res.Representatives[0] {
		rc := linalg.SubVec(r, center)
		for _, m := range res.Means[1] {
			mc := linalg.SubVec(m, center)
			if c := math.Abs(cosineSim(rc, mc)); c > maxCos {
				maxCos = c
			}
		}
	}
	if maxCos > 0.5 {
		t.Errorf("representatives not decorrelated from other clustering's means: max |cos| = %v", maxCos)
	}
}

func TestDecKMeansThreeClusterings(t *testing.T) {
	// T=3 on a 3-view dataset: each solution should be valid and mutually
	// near-independent.
	ds, _, _ := dataset.MultiViewGaussians(7, 150, []dataset.ViewSpec{
		{Dims: 2, K: 2, Sep: 8, Sigma: 0.5},
		{Dims: 2, K: 2, Sep: 8, Sigma: 0.5},
		{Dims: 2, K: 2, Sep: 8, Sigma: 0.5},
	})
	res, err := DecKMeans(ds.Points, DecKMeansConfig{Ks: []int{2, 2, 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusterings) != 3 {
		t.Fatalf("clusterings = %d", len(res.Clusterings))
	}
	for t1 := 0; t1 < 3; t1++ {
		if res.Clusterings[t1].K() < 2 {
			t.Errorf("solution %d degenerate", t1)
		}
	}
}

func TestDecKMeansErrors(t *testing.T) {
	if _, err := DecKMeans(nil, DecKMeansConfig{Ks: []int{2, 2}}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	if _, err := DecKMeans(pts, DecKMeansConfig{Ks: []int{2}}); err == nil {
		t.Error("single clustering should fail")
	}
	if _, err := DecKMeans(pts, DecKMeansConfig{Ks: []int{2, 0}}); err == nil {
		t.Error("zero K should fail")
	}
	if _, err := DecKMeans(pts, DecKMeansConfig{Ks: []int{2, 2}, Lambda: -1}); err == nil {
		t.Error("negative lambda should fail")
	}
}

func TestCAMIFindsDecorrelatedPair(t *testing.T) {
	ds, hor, ver := dataset.FourBlobToy(2, 30)
	res, err := CAMI(ds.Points, CAMIConfig{K1: 2, K2: 2, Mu: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// MI between the two solutions must be small.
	if res.MutualInfo > 0.15 {
		t.Errorf("CAMI solutions correlated: soft MI=%v", res.MutualInfo)
	}
	// Both natural views should be covered by the pair.
	bestH := math.Max(metrics.AdjustedRand(hor, res.Clustering1.Labels), metrics.AdjustedRand(hor, res.Clustering2.Labels))
	bestV := math.Max(metrics.AdjustedRand(ver, res.Clustering1.Labels), metrics.AdjustedRand(ver, res.Clustering2.Labels))
	if bestH < 0.7 || bestV < 0.7 {
		t.Errorf("views not both covered: hor=%v ver=%v", bestH, bestV)
	}
}

func TestCAMIMuReducesMI(t *testing.T) {
	ds, _, _ := dataset.FourBlobToy(4, 30)
	loose, err := CAMI(ds.Points, CAMIConfig{K1: 2, K2: 2, Mu: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := CAMI(ds.Points, CAMIConfig{K1: 2, K2: 2, Mu: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tight.MutualInfo > loose.MutualInfo+1e-9 {
		t.Errorf("Mu should reduce MI: mu=0 -> %v, mu=10 -> %v", loose.MutualInfo, tight.MutualInfo)
	}
}

func TestCAMIErrors(t *testing.T) {
	if _, err := CAMI(nil, CAMIConfig{K1: 2, K2: 2}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := CAMI(pts, CAMIConfig{K1: 0, K2: 2}); err == nil {
		t.Error("K1=0 should fail")
	}
	if _, err := CAMI(pts, CAMIConfig{K1: 2, K2: 2, Mu: -1}); err == nil {
		t.Error("negative Mu should fail")
	}
}

func TestContingencyUniformity(t *testing.T) {
	ds, hor, ver := dataset.FourBlobToy(3, 20)
	res, err := Contingency(ds.Points, ContingencyConfig{K1: 2, K2: 2, Gamma: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The two solutions should be near-independent.
	if nmi := metrics.NMI(res.Clustering1.Labels, res.Clustering2.Labels); nmi > 0.3 {
		t.Errorf("solutions correlated: NMI=%v", nmi)
	}
	if res.Uniformity < 0.9 {
		t.Errorf("uniformity = %v", res.Uniformity)
	}
	// Quality preserved: each solution matches one of the natural views
	// reasonably well.
	bestH := math.Max(metrics.AdjustedRand(hor, res.Clustering1.Labels), metrics.AdjustedRand(hor, res.Clustering2.Labels))
	bestV := math.Max(metrics.AdjustedRand(ver, res.Clustering1.Labels), metrics.AdjustedRand(ver, res.Clustering2.Labels))
	if bestH < 0.6 || bestV < 0.6 {
		t.Errorf("prototype quality lost: hor=%v ver=%v", bestH, bestV)
	}
}

func TestContingencyErrors(t *testing.T) {
	if _, err := Contingency(nil, ContingencyConfig{K1: 2, K2: 2}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := Contingency(pts, ContingencyConfig{K1: 0, K2: 2}); err == nil {
		t.Error("K1=0 should fail")
	}
	if _, err := Contingency(pts, ContingencyConfig{K1: 2, K2: 2, Gamma: -1}); err == nil {
		t.Error("negative Gamma should fail")
	}
}
