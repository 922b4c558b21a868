package subspace

import (
	"testing"
	"testing/quick"

	"multiclust/internal/dataset"
	"multiclust/internal/metrics"
)

func TestCliqueFindsPlantedClusters(t *testing.T) {
	specs := []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 60, Width: 0.08},
		{Dims: []int{3, 4}, Size: 50, Width: 0.08},
	}
	ds, truth, err := dataset.SubspaceData(1, 200, 6, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clique(ds.Points, CliqueConfig{Xi: 10, Tau: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters found")
	}
	if f1 := metrics.SubspaceF1(truth, res.Clusters); f1 < 0.8 {
		t.Errorf("SubspaceF1 = %v", f1)
	}
	// The planted subspaces must appear among found dimension sets.
	foundDims := map[string]bool{}
	for _, c := range res.Clusters {
		foundDims[dimsKey(c.Dims)] = true
	}
	if !foundDims["[0 1]"] || !foundDims["[3 4]"] {
		t.Errorf("planted subspaces missing: %v", foundDims)
	}
}

func dimsKey(d []int) string {
	s := "["
	for i, v := range d {
		if i > 0 {
			s += " "
		}
		s += itoa(v)
	}
	return s + "]"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestCliquePruningEffective(t *testing.T) {
	ds, _, err := dataset.SubspaceData(2, 150, 8, []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 50, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clique(ds.Points, CliqueConfig{Xi: 8, Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The naive lattice has xi^s cells per subspace and 2^8 subspaces; the
	// apriori search must examine far fewer candidates.
	naive := 1 << 8 * 8 * 8 // loose lower bound on naive cell count
	if res.Stats.CandidatesGenerated >= naive {
		t.Errorf("apriori examined %d candidates, naive bound %d", res.Stats.CandidatesGenerated, naive)
	}
	if res.Stats.DenseUnits == 0 {
		t.Error("no dense units")
	}
}

func TestCliqueMonotonicityInvariant(t *testing.T) {
	// Property (slide 71): every dense unit's projection onto any subset of
	// its dimensions is dense. Verify support counts are monotone: each
	// (s)-dim unit's object count <= any (s-1)-projection's count. Since the
	// search stores all dense units we can check containment directly.
	ds, _, err := dataset.SubspaceData(3, 120, 5, []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2}, Size: 40, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clique(ds.Points, CliqueConfig{Xi: 6, Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	index := map[string][]int{}
	for _, u := range res.Units {
		index[unitKey(u.Dims, u.Intervals)] = u.Objects
	}
	for _, u := range res.Units {
		s := len(u.Dims)
		if s == 1 {
			continue
		}
		for drop := 0; drop < s; drop++ {
			var sd, si []int
			for i := 0; i < s; i++ {
				if i != drop {
					sd = append(sd, u.Dims[i])
					si = append(si, u.Intervals[i])
				}
			}
			parent, ok := index[unitKey(sd, si)]
			if !ok {
				t.Fatalf("projection of dense unit not dense: %v/%v", sd, si)
			}
			if len(parent) < len(u.Objects) {
				t.Fatalf("support not monotone: %d > %d", len(u.Objects), len(parent))
			}
		}
	}
}

func TestCliqueErrors(t *testing.T) {
	if _, err := Clique(nil, CliqueConfig{}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0.5, 0.5}}
	if _, err := Clique(pts, CliqueConfig{Xi: -1}); err == nil {
		t.Error("negative Xi should fail")
	}
	if _, err := Clique(pts, CliqueConfig{Tau: 2}); err == nil {
		t.Error("Tau>1 should fail")
	}
}

func TestCliqueObjectInMultipleClusters(t *testing.T) {
	// One object set clustered in two disjoint subspaces: CLIQUE must report
	// the objects in both (slide 70: each object in multiple dense cells).
	objs := make([]int, 40)
	for i := range objs {
		objs[i] = i
	}
	ds, _, err := dataset.SubspaceData(4, 100, 4, []dataset.SubspaceSpec{
		{Dims: []int{0}, Size: 40, Width: 0.08, Objects: objs},
		{Dims: []int{2}, Size: 40, Width: 0.08, Objects: objs},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Clique(ds.Points, CliqueConfig{Xi: 10, Tau: 0.2, MaxDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, c := range res.Clusters {
		if containsInt(c.Objects, 0) {
			count++
		}
	}
	if count < 2 {
		t.Errorf("object 0 should appear in clusters of both subspaces, got %d", count)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestSchismRecoversHighDimClusterThatCliqueMisses(t *testing.T) {
	// A 5-dimensional cluster of 100/400 objects on a coarse grid. SCHISM's
	// level-1 threshold is high (expected 1D density 0.5 plus slack), and
	// decreases with dimensionality, so the deep cluster survives. CLIQUE
	// run with that same level-1 threshold at EVERY level misses it —
	// exactly the fixed-threshold starvation of slide 73.
	ds, truth, err := dataset.SubspaceData(1, 400, 8, []dataset.SubspaceSpec{
		{Dims: []int{0, 1, 2, 3, 4}, Size: 100, Width: 0.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	schism, err := Schism(ds.Points, SchismConfig{Xi: 2, Tau: 0.01, MaxDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	bestDim := func(m []GridCluster) int {
		best := 0
		for _, c := range m {
			if f := float64(c.SharedObjects(truth[0])) / float64(truth[0].Size()); f > 0.8 && len(c.Dims) > best {
				best = len(c.Dims)
			}
		}
		return best
	}
	if got := bestDim(schism.Grid); got < 5 {
		t.Errorf("SCHISM should recover the 5D cluster, best matching dim = %d", got)
	}
	clique, err := Clique(ds.Points, CliqueConfig{Xi: 2, Tau: schism.Threshold(1), MaxDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := bestDim(clique.Grid); got >= 5 {
		t.Errorf("fixed-threshold CLIQUE should miss the 5D cluster, found dim %d", got)
	}
	// The defining property: the threshold decreases with dimensionality.
	if schism.Threshold(1) <= schism.Threshold(5) {
		t.Error("SCHISM threshold must decrease with dimensionality")
	}
}

func TestSchismErrors(t *testing.T) {
	if _, err := Schism(nil, SchismConfig{}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0.5}}
	if _, err := Schism(pts, SchismConfig{Tau: 1.5}); err == nil {
		t.Error("invalid Tau should fail")
	}
}

// Property: intersectSorted returns a sorted subset of both inputs.
func TestQuickIntersectSorted(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa := uniqueSortedInts(a)
		sb := uniqueSortedInts(b)
		got := intersectSorted(sa, sb)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		for _, v := range got {
			if !containsInt(sa, v) || !containsInt(sb, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func uniqueSortedInts(v []uint8) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range v {
		seen[int(x)] = true
	}
	for x := 0; x < 256; x++ {
		if seen[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestAdjacentUnits(t *testing.T) {
	a := &Unit{Dims: []int{0, 1}, Intervals: []int{2, 3}}
	b := &Unit{Dims: []int{0, 1}, Intervals: []int{2, 4}}
	if !adjacentUnits(a, b) {
		t.Error("face-sharing units should be adjacent")
	}
	c := &Unit{Dims: []int{0, 1}, Intervals: []int{3, 4}}
	if adjacentUnits(a, c) {
		t.Error("diagonal units are not adjacent")
	}
	d := &Unit{Dims: []int{0, 1}, Intervals: []int{2, 3}}
	if adjacentUnits(a, d) {
		t.Error("identical units are not adjacent")
	}
}

// BenchmarkCliqueLib runs CLIQUE with the lib-paradigms workload's
// configuration on its subspace set (n = 500, d = 8).
func BenchmarkCliqueLib(b *testing.B) {
	pts := libPoints(b, 12, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Clique(pts, CliqueConfig{Xi: 10, Tau: 0.03, MaxDim: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
