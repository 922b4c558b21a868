package subspace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/obs"
)

// libConfig and libPoints are the shape of the end-to-end lib-paradigms
// workload: n objects in 8 dimensions, a fifth of them in each of three
// hidden clusters in the 2-, 2- and 3-dimensional subspaces {0,1}, {3,4}
// and {5,6,7}, searched up to 3-dimensional subspaces.
var libConfig = SubcluConfig{Eps: 0.05, MinPts: 8, MaxDim: 3}

func libPoints(tb testing.TB, seed int64, n int) [][]float64 {
	tb.Helper()
	ds, _, err := dataset.SubspaceData(seed, n, 8, []dataset.SubspaceSpec{
		{Dims: []int{0, 1}, Size: n / 5, Width: 0.08},
		{Dims: []int{3, 4}, Size: n / 5, Width: 0.08},
		{Dims: []int{5, 6, 7}, Size: n / 5, Width: 0.1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Points
}

// subcluObservation is everything one run reports: the result and the
// work counters and level series the process recorder saw.
type subcluObservation struct {
	res      *SubcluResult
	err      error
	counters map[string]int64
	levels   []obs.Sample
}

// observeSubclu runs one SUBCLU implementation with a fresh Collector
// installed as the process recorder. A derived neighborhood counts as one
// region query, as a grid query does, so dbscan.region_queries is
// compared along with the expansion counters and every
// subspace.subclu.* counter; dbscan.grid_indexes is not, since the
// derivation builds no grid.
func observeSubclu(run func([][]float64, SubcluConfig) (*SubcluResult, error), points [][]float64, cfg SubcluConfig) subcluObservation {
	prev := obs.Default()
	col := obs.NewCollector()
	obs.SetDefault(col)
	defer obs.SetDefault(prev)
	res, err := run(points, cfg)
	o := subcluObservation{res: res, err: err, counters: map[string]int64{}, levels: col.Series("subspace.subclu.level_examined")}
	for k, v := range col.Snapshot().Counters {
		if strings.HasPrefix(k, "subspace.subclu.") || k == "dbscan.region_queries" ||
			k == "dbscan.neighborhood_lookups" || k == "dbscan.core_objects" || k == "dbscan.clusters" {
			o.counters[k] = v
		}
	}
	return o
}

// checkSubcluEqualsReference fails unless Subclu and subcluReference agree
// exactly on the result, the error and the work counters, and returns
// Subclu's result.
func checkSubcluEqualsReference(t *testing.T, name string, points [][]float64, cfg SubcluConfig) *SubcluResult {
	t.Helper()
	got := observeSubclu(Subclu, points, cfg)
	compareObservations(t, name, got, observeSubclu(subcluReference, points, cfg))
	return got.res
}

func compareObservations(t *testing.T, name string, got, want subcluObservation) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error %v, reference %v", name, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result differs from the reference\n got: %+v\nwant: %+v", name, got.res, want.res)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Fatalf("%s: counters %v, reference %v", name, got.counters, want.counters)
	}
	if !reflect.DeepEqual(got.levels, want.levels) {
		t.Fatalf("%s: level_examined %v, reference %v", name, got.levels, want.levels)
	}
}

// TestSubcluEqualsReference pins the derived neighborhoods to the
// grid-per-subspace reference on the end-to-end workload's shape at 40
// seeds, and on a 12-dimensional case whose level order is the string
// order of the rendered dims ("[2 10]" before "[2 3]"), not the numeric
// one.
func TestSubcluEqualsReference(t *testing.T) {
	derived := 0
	for seed := int64(0); seed < 40; seed++ {
		if hasDims(checkSubcluEqualsReference(t, fmt.Sprintf("lib seed %d", seed), libPoints(t, seed, 500), libConfig), 3) {
			derived++
		}
	}
	if derived == 0 {
		t.Fatal("no lib seed found a 3-dimensional cluster: the derivation went unexercised")
	}

	ds, _, err := dataset.SubspaceData(7, 300, 12, []dataset.SubspaceSpec{
		{Dims: []int{2, 3, 10}, Size: 80, Width: 0.1},
		{Dims: []int{2, 9, 11}, Size: 70, Width: 0.1},
		{Dims: []int{0, 1, 10, 11}, Size: 60, Width: 0.12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasDims(checkSubcluEqualsReference(t, "d=12", ds.Points, SubcluConfig{Eps: 0.06, MinPts: 6, MaxDim: 4}), 4) {
		t.Fatal("the d=12 case found no 4-dimensional cluster")
	}
}

// hasDims reports whether res holds a cluster in an s-dimensional subspace.
func hasDims(res *SubcluResult, s int) bool {
	for _, c := range res.Clusters {
		if len(c.Dims) == s {
			return true
		}
	}
	return false
}

// FuzzSubcluEqualsReference fuzzes the differential property: over random
// data with planted subspace clusters, radii, thresholds and dimensionality
// caps, Subclu must return exactly the reference's result and counters.
// Some coordinates are snapped to a 0.1 grid so that distances of exactly
// ε occur, and some runs set MinPtsAt, DUSC's per-dimensionality hook.
func FuzzSubcluEqualsReference(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(8), 0.05, uint8(6), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(100), uint8(12), 0.1, uint8(4), uint8(13), uint8(128), uint8(3))
	f.Add(int64(3), uint8(64), uint8(5), 0.2, uint8(3), uint8(0), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, eps float64, minPts, maxDim, snap, minPtsAt uint8) {
		nn := int(n)%128 + 1
		dd := int(d)%12 + 1
		if !(eps >= 0.005 && eps <= 1) {
			t.Skip()
		}
		cfg := SubcluConfig{Eps: eps, MinPts: int(minPts)%12 + 1, MaxDim: int(maxDim) % (dd + 2)}
		if minPtsAt > 0 {
			step := int(minPtsAt)
			cfg.MinPtsAt = func(dim int) int { return (dim * step) % 7 } // 0 falls back to MinPts
		}
		rng := rand.New(rand.NewSource(seed))
		var specs []dataset.SubspaceSpec
		for c := rng.Intn(4); c > 0; c-- {
			dims := rng.Perm(dd)[:1+rng.Intn(min(dd, 4))]
			specs = append(specs, dataset.SubspaceSpec{Dims: dims, Size: 1 + rng.Intn(nn), Width: eps * (0.5 + 2*rng.Float64())})
		}
		ds, _, err := dataset.SubspaceData(rng.Int63(), nn, dd, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range ds.Points {
			for j := range row {
				if rng.Intn(256) < int(snap) {
					row[j] = math.Round(row[j]*10) / 10
				}
			}
		}
		name := fmt.Sprintf("n=%d d=%d eps=%g minPts=%d maxDim=%d", nn, dd, eps, cfg.MinPts, cfg.MaxDim)
		// An input that holds clusters in nearly every subspace (MinPts
		// 1, or a radius across the unit cube) makes the reference's
		// grid-per-subspace walk slow enough to trip the fuzzer's
		// per-input deadline, so such inputs are skipped once Subclu has
		// counted the subspaces the reference would examine.
		got := observeSubclu(Subclu, ds.Points, cfg)
		if referenceCost(got.levels, nn) > 1<<23 {
			t.Skip()
		}
		compareObservations(t, name, got, observeSubclu(subcluReference, ds.Points, cfg))
	})
}

// referenceCost bounds the reference's work on n objects from the number
// of subspaces examined per level: per subspace and object, up to 3^s
// probed grid cells (the grid declines above 6 dimensions) plus n
// candidates.
func referenceCost(levels []obs.Sample, n int) float64 {
	work := 0.0
	for _, l := range levels {
		probes := 0.0
		if l.Iter <= 6 {
			probes = math.Pow(3, float64(l.Iter))
		}
		work += l.Value * float64(n) * (probes + float64(n))
	}
	return work
}

// BenchmarkSubcluScale compares the derived neighborhoods with the
// grid-per-subspace reference on the lib-paradigms shape as n grows.
func BenchmarkSubcluScale(b *testing.B) {
	impls := []struct {
		name string
		run  func([][]float64, SubcluConfig) (*SubcluResult, error)
	}{{"reference", subcluReference}, {"current", Subclu}}
	for _, n := range []int{500, 1000, 2000, 4000} {
		pts := libPoints(b, 12, n)
		for _, impl := range impls {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.run(pts, libConfig); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
