package subspace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
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
	return subcluObservation{res: res, err: err, counters: subcluCounters(col), levels: col.Series("subspace.subclu.level_examined")}
}

// subcluCounters returns the counters of col that observeSubclu compares.
func subcluCounters(col *obs.Collector) map[string]int64 {
	out := map[string]int64{}
	for k, v := range col.Snapshot().Counters {
		if strings.HasPrefix(k, "subspace.subclu.") || k == "dbscan.region_queries" ||
			k == "dbscan.neighborhood_lookups" || k == "dbscan.core_objects" || k == "dbscan.clusters" {
			out[k] = v
		}
	}
	return out
}

// determinismWorkers are the worker counts every differential test runs
// Subclu at.
var determinismWorkers = []int{1, 2, 4, 8}

// atWorkers runs f with the process default worker count set to workers
// and GOMAXPROCS raised to at least workers, so that a defaulted fan-out,
// which is capped at GOMAXPROCS, really splits that many ways. Both are
// restored afterwards.
func atWorkers(workers int, f func()) {
	defer parallel.SetDefault(parallel.Default())
	parallel.SetDefault(workers)
	procs := runtime.GOMAXPROCS(max(workers, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(procs)
	f()
}

// observeSubcluAt is observeSubclu run atWorkers(workers).
func observeSubcluAt(workers int, run func([][]float64, SubcluConfig) (*SubcluResult, error), points [][]float64, cfg SubcluConfig) (o subcluObservation) {
	atWorkers(workers, func() { o = observeSubclu(run, points, cfg) })
	return o
}

// checkSubcluEqualsReference fails unless Subclu at every worker count of
// determinismWorkers and subcluReference agree exactly on the result, the
// error and the work counters, and returns Subclu's result.
func checkSubcluEqualsReference(t *testing.T, name string, points [][]float64, cfg SubcluConfig) *SubcluResult {
	t.Helper()
	want := observeSubclu(subcluReference, points, cfg)
	var got subcluObservation
	for _, w := range determinismWorkers {
		got = observeSubcluAt(w, Subclu, points, cfg)
		compareObservations(t, fmt.Sprintf("%s workers=%d", name, w), got, want)
	}
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

// TestSubcluEqualsReference pins the derived neighborhoods and the
// concurrent examination of each level's candidates to the serial
// grid-per-subspace reference, at 1, 2, 4 and 8 workers, on the end-to-end
// workload's shape at 40 seeds, and on a 12-dimensional case whose level
// order is the string order of the rendered dims ("[2 10]" before
// "[2 3]"), not the numeric one.
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

	// Non-finite rows: one all NaN, one of +Inf and -Inf values, and one
	// with a NaN in dimension 0 only. For a finite ε a non-finite value is
	// within ε of nothing, itself included, in the 1-D runs, in the grid
	// and in the reference's linear scan alike, so with MinPts 1 the
	// non-finite objects are noise where every finite object is clustered.
	points := libPoints(t, 3, 500)
	inf := math.Inf(1)
	for j := range points[0] {
		points[0][j] = math.NaN()
		points[1][j] = inf
		inf = -inf
	}
	points[2][0] = math.NaN()
	for _, minPts := range []int{1, libConfig.MinPts} {
		cfg := libConfig
		cfg.MinPts = minPts
		res := checkSubcluEqualsReference(t, fmt.Sprintf("non-finite rows minPts=%d", minPts), points, cfg)
		for _, c := range res.Clusters {
			if slices.Contains(c.Objects, 0) || slices.Contains(c.Objects, 1) || slices.Contains(c.Dims, 0) && slices.Contains(c.Objects, 2) {
				t.Fatalf("minPts=%d: a non-finite value is clustered in %v", minPts, c.Dims)
			}
		}
	}
	// At ε = +Inf an infinite value passes the ε-test against a finite one.
	checkSubcluEqualsReference(t, "non-finite rows eps=+Inf", points[:60], SubcluConfig{Eps: math.Inf(1), MinPts: 4, MaxDim: 2})
}

// TestSubcluContextInterruptedAtLevel cancels the search from the
// MinPtsAt hook when it is asked for level 2, at every worker count: the
// result, the counters and the level series must be exactly those of a
// search capped at level 1, with an error wrapping core.ErrInterrupted
// whose text does not depend on the worker count.
func TestSubcluContextInterruptedAtLevel(t *testing.T) {
	points := libPoints(t, 3, 500)
	capped := libConfig
	capped.MaxDim = 1
	want := observeSubclu(Subclu, points, capped)
	var firstErr string
	for _, w := range determinismWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := libConfig
		asked := 0
		cfg.MinPtsAt = func(dim int) int {
			asked++
			if dim == 2 {
				cancel()
			}
			return 0 // MinPts applies
		}
		got := observeSubcluAt(w, func(p [][]float64, c SubcluConfig) (*SubcluResult, error) {
			return SubcluContext(ctx, p, c)
		}, points, cfg)
		cancel()
		if !errors.Is(got.err, core.ErrInterrupted) {
			t.Fatalf("workers=%d: error %v, want ErrInterrupted", w, got.err)
		}
		if asked != 2 {
			t.Fatalf("workers=%d: MinPtsAt asked %d times, want once per level", w, asked)
		}
		if firstErr == "" {
			firstErr = got.err.Error()
		} else if got.err.Error() != firstErr {
			t.Fatalf("workers=%d: error %q, at 1 worker %q", w, got.err, firstErr)
		}
		got.err = nil
		compareObservations(t, fmt.Sprintf("workers=%d", w), got, want)
	}
}

// TestSubcluContextRecorder pins the per-call recorder: with a recorder
// on ctx, every SUBCLU and DBSCAN counter of the run, the grid's region
// queries included, lands there and none on the process recorder.
func TestSubcluContextRecorder(t *testing.T) {
	points := libPoints(t, 3, 500)
	want := observeSubclu(Subclu, points, libConfig)
	col := obs.NewCollector()
	got := observeSubclu(func(p [][]float64, c SubcluConfig) (*SubcluResult, error) {
		return SubcluContext(obs.NewContext(context.Background(), col), p, c)
	}, points, libConfig)
	if len(got.counters) != 0 || len(got.levels) != 0 {
		t.Fatalf("process recorder saw %v and levels %v", got.counters, got.levels)
	}
	got.counters, got.levels = subcluCounters(col), col.Series("subspace.subclu.level_examined")
	compareObservations(t, "ctx recorder", got, want)
}

// TestDeriveMatchesEuclidean pins derive's re-test to the Euclidean
// ε-test where the two could part: three-dimensional rows at distance ε
// from the first row along random directions, whose squared distances
// straddle ε² by a few ulps, with every pair on the parent's lists.
func TestDeriveMatchesEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, eps := range []float64{0.1, 0.3, 0.7, 1.3} {
		rows := [][]float64{{0, 0, 0}}
		for i := 0; i < 60; i++ {
			dir := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			norm := math.Sqrt(dir[0]*dir[0] + dir[1]*dir[1] + dir[2]*dir[2])
			for j := range dir {
				dir[j] *= eps / norm
			}
			rows = append(rows, dir)
		}
		parent := &neighborhoods{off: []int{0}}
		for range rows {
			for q := range rows {
				parent.idx = append(parent.idx, int32(q))
			}
			parent.off = append(parent.off, len(parent.idx))
		}
		sc := &subcluSearch{cfg: SubcluConfig{Eps: eps}}
		nf := sc.derive(context.Background(), new(walkScratch), rows, parent)
		for o, row := range rows {
			var want []int
			for q, other := range rows {
				if dist.Euclidean(row, other) <= eps {
					want = append(want, q)
				}
			}
			if got := nf(o); !slices.Equal(got, want) {
				t.Fatalf("eps=%g row %d: derived %v, Euclidean %v", eps, o, got, want)
			}
		}
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
// data with planted subspace clusters, radii, thresholds, dimensionality
// caps and worker counts from 1 to 4, Subclu must return exactly the
// reference's result and counters. Some coordinates are snapped to a 0.1
// grid so that distances of exactly ε occur, and some runs set MinPtsAt,
// DUSC's per-dimensionality hook.
func FuzzSubcluEqualsReference(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(8), 0.05, uint8(6), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(100), uint8(12), 0.1, uint8(4), uint8(13), uint8(128), uint8(3), uint8(1))
	f.Add(int64(3), uint8(64), uint8(5), 0.2, uint8(3), uint8(0), uint8(255), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, eps float64, minPts, maxDim, snap, minPtsAt, workers uint8) {
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
		w := int(workers)%4 + 1
		name := fmt.Sprintf("n=%d d=%d eps=%g minPts=%d maxDim=%d workers=%d", nn, dd, eps, cfg.MinPts, cfg.MaxDim, w)
		// An input that holds clusters in nearly every subspace (MinPts
		// 1, or a radius across the unit cube) makes the reference's
		// scan-per-subspace walk slow enough to trip the fuzzer's
		// per-input deadline, so such inputs are skipped once Subclu has
		// counted the subspaces the reference would examine.
		got := observeSubcluAt(w, Subclu, ds.Points, cfg)
		if referenceCost(got.levels, nn) > 1<<23 {
			t.Skip()
		}
		compareObservations(t, name, got, observeSubclu(subcluReference, ds.Points, cfg))
	})
}

// referenceCost bounds the reference's work on n objects from the number
// of subspaces examined per level: a linear scan of n candidates per
// subspace and object.
func referenceCost(levels []obs.Sample, n int) float64 {
	work := 0.0
	for _, l := range levels {
		work += l.Value * float64(n) * float64(n)
	}
	return work
}

// BenchmarkSubcluScale compares the derived neighborhoods with the
// reference on the lib-paradigms shape as n grows. The reference scans
// linearly in every subspace (1.6 s per op at n = 2000 and 6 s at n = 4000
// on a 2-vCPU Xeon), so its rows stop at n = 1000.
func BenchmarkSubcluScale(b *testing.B) {
	impls := []struct {
		name string
		run  func([][]float64, SubcluConfig) (*SubcluResult, error)
	}{{"reference", subcluReference}, {"current", Subclu}}
	for _, n := range []int{500, 1000, 2000, 4000} {
		pts := libPoints(b, 12, n)
		for _, impl := range impls {
			if impl.name == "reference" && n > 1000 {
				continue
			}
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
