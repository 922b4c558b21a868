package subspace

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/obs"
	"multiclust/internal/stats"
)

// denseUnitsReference is the bottom-up apriori search as it stood before
// unit keys were rendered without fmt: every key is built with
// fmt.Sprintf, twice in every comparison of the level sort, and every
// candidate allocates its dims, intervals and sub-unit keys. It is kept as
// the behavioural oracle for denseUnits: TestCliqueEqualsReference and
// FuzzCliqueEqualsReference pin identical units in identical order,
// identical stats and identical clusters.
func denseUnitsReference(points [][]float64, cfg gridConfig) ([]Unit, GridStats, error) {
	n := len(points)
	if n == 0 {
		return nil, GridStats{}, core.ErrEmptyDataset
	}
	d := len(points[0])
	if cfg.Xi < 1 {
		return nil, GridStats{}, errors.New("subspace: Xi must be at least 1")
	}
	if cfg.MaxDim <= 0 || cfg.MaxDim > d {
		cfg.MaxDim = d
	}
	stats := GridStats{UnitsPerDim: map[int]int{}}
	minCount := func(s int) int {
		t := cfg.Threshold(s)
		c := int(t*float64(n) + 0.9999999)
		if c < 1 {
			c = 1
		}
		return c
	}

	rec := obs.Default()
	ctx, endSpan := obs.SpanCtx(context.Background(), rec, "subspace.grid.search")
	defer endSpan()

	// Level 1: one pass over the data per dimension.
	var all []Unit
	level := make(map[string]*Unit)
	func() {
		_, end := obs.SpanCtx(ctx, rec, "subspace.grid.level")
		defer end()
		for j := 0; j < d; j++ {
			buckets := make([][]int, cfg.Xi)
			for i, p := range points {
				b := interval(p[j], cfg.Xi)
				buckets[b] = append(buckets[b], i)
			}
			for b, objs := range buckets {
				stats.CandidatesGenerated++
				if len(objs) >= minCount(1) {
					u := &Unit{Dims: []int{j}, Intervals: []int{b}, Objects: objs}
					level[unitKey(u.Dims, u.Intervals)] = u
				}
			}
		}
	}()
	refAppendLevel(&all, level, &stats)
	observeLevel(rec, 1, stats, GridStats{})
	prev := level

	for s := 2; s <= cfg.MaxDim && len(prev) > 1; s++ {
		before := stats
		cur := make(map[string]*Unit)
		func() {
			_, end := obs.SpanCtx(ctx, rec, "subspace.grid.level")
			defer end()
			units := make([]*Unit, 0, len(prev))
			for _, u := range prev {
				units = append(units, u)
			}
			sort.Slice(units, func(i, j int) bool {
				return unitKey(units[i].Dims, units[i].Intervals) < unitKey(units[j].Dims, units[j].Intervals)
			})
			mc := minCount(s)
			for i := 0; i < len(units); i++ {
				for j := i + 1; j < len(units); j++ {
					a, b := units[i], units[j]
					if !joinable(a, b) {
						continue
					}
					dims, ivals := refJoinUnit(a, b)
					key := unitKey(dims, ivals)
					if _, seen := cur[key]; seen {
						continue
					}
					// Apriori prune: every (s-1)-subunit must be dense.
					if !refAllSubunitsDense(dims, ivals, prev) {
						stats.CandidatesPruned++
						continue
					}
					stats.CandidatesGenerated++
					objs := intersectSorted(a.Objects, b.Objects)
					if len(objs) >= mc {
						cur[key] = &Unit{Dims: dims, Intervals: ivals, Objects: objs}
					}
				}
			}
		}()
		refAppendLevel(&all, cur, &stats)
		observeLevel(rec, s, stats, before)
		prev = cur
	}
	if rec != nil {
		obs.Count(rec, "subspace.grid.searches", 1)
		obs.Count(rec, "subspace.grid.candidates", int64(stats.CandidatesGenerated))
		obs.Count(rec, "subspace.grid.pruned", int64(stats.CandidatesPruned))
		obs.Count(rec, "subspace.grid.dense_units", int64(stats.DenseUnits))
	}
	return all, stats, nil
}

func refAppendLevel(all *[]Unit, level map[string]*Unit, stats *GridStats) {
	keys := make([]string, 0, len(level))
	for k := range level {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := level[k]
		*all = append(*all, *u)
		stats.DenseUnits++
		stats.UnitsPerDim[len(u.Dims)]++
	}
}

// unitKey renders a unit as "d:i;" per dimension with fmt; denseUnits
// renders the same text with strconv (appendUnitKey).
func unitKey(dims, ivals []int) string {
	key := make([]byte, 0, 8*len(dims))
	for i := range dims {
		key = append(key, []byte(fmt.Sprintf("%d:%d;", dims[i], ivals[i]))...)
	}
	return string(key)
}

func refJoinUnit(a, b *Unit) (dims, ivals []int) {
	s := len(a.Dims)
	dims = append(append([]int(nil), a.Dims...), b.Dims[s-1])
	ivals = append(append([]int(nil), a.Intervals...), b.Intervals[s-1])
	// Keep dims ascending (the last two may be out of order).
	if s >= 1 && dims[s] < dims[s-1] {
		dims[s], dims[s-1] = dims[s-1], dims[s]
		ivals[s], ivals[s-1] = ivals[s-1], ivals[s]
	}
	return dims, ivals
}

func refAllSubunitsDense(dims, ivals []int, prev map[string]*Unit) bool {
	s := len(dims)
	subDims := make([]int, 0, s-1)
	subIvals := make([]int, 0, s-1)
	for drop := 0; drop < s; drop++ {
		subDims = subDims[:0]
		subIvals = subIvals[:0]
		for i := 0; i < s; i++ {
			if i == drop {
				continue
			}
			subDims = append(subDims, dims[i])
			subIvals = append(subIvals, ivals[i])
		}
		if _, ok := prev[unitKey(subDims, subIvals)]; !ok {
			return false
		}
	}
	return true
}

// unitsToClustersReference is unitsToClusters with each subspace keyed by
// fmt.Sprint of its dims.
func unitsToClustersReference(units []Unit, xi int) []GridCluster {
	bySub := map[string][]int{}
	subDims := map[string][]int{}
	for i, u := range units {
		k := fmt.Sprint(u.Dims)
		bySub[k] = append(bySub[k], i)
		subDims[k] = u.Dims
	}
	keys := make([]string, 0, len(bySub))
	for k := range bySub {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []GridCluster
	for _, k := range keys {
		idxs := bySub[k]
		parent := make([]int, len(idxs))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			if parent[x] != x {
				parent[x] = find(parent[x])
			}
			return parent[x]
		}
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				if adjacentUnits(&units[idxs[i]], &units[idxs[j]]) {
					parent[find(i)] = find(j)
				}
			}
		}
		comps := map[int][]int{}
		for i := range idxs {
			r := find(i)
			comps[r] = append(comps[r], idxs[i])
		}
		roots := make([]int, 0, len(comps))
		for r := range comps {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			objSet := map[int]bool{}
			for _, ui := range comps[r] {
				for _, o := range units[ui].Objects {
					objSet[o] = true
				}
			}
			objs := make([]int, 0, len(objSet))
			for o := range objSet {
				objs = append(objs, o)
			}
			sort.Ints(objs)
			out = append(out, GridCluster{
				SubspaceCluster: core.NewSubspaceCluster(objs, subDims[k]),
				Units:           len(comps[r]),
				Xi:              xi,
			})
		}
	}
	return out
}

// gridOutcome is what a CLIQUE or SCHISM run returns, minus SCHISM's
// threshold function, which reflect.DeepEqual cannot compare.
type gridOutcome struct {
	Units    []Unit
	Stats    GridStats
	Grid     []GridCluster
	Clusters core.SubspaceClustering
}

// gridOutcomes runs CLIQUE and SCHISM.
func gridOutcomes(t *testing.T, points [][]float64, xi int, tau float64, maxDim int) [2]gridOutcome {
	t.Helper()
	cr, err := Clique(points, CliqueConfig{Xi: xi, Tau: tau, MaxDim: maxDim})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Schism(points, SchismConfig{Xi: xi, Tau: tau, MaxDim: maxDim})
	if err != nil {
		t.Fatal(err)
	}
	return [2]gridOutcome{{cr.Units, cr.Stats, cr.Grid, cr.Clusters}, {sr.Units, sr.Stats, sr.Grid, sr.Clusters}}
}

// checkGridEqualsReference fails unless got, what CLIQUE and SCHISM
// returned, equals what CLIQUE's and SCHISM's thresholds give through
// denseUnitsReference and unitsToClustersReference.
func checkGridEqualsReference(t *testing.T, name string, points [][]float64, xi int, tau float64, maxDim int, got [2]gridOutcome) {
	t.Helper()
	n := len(points)
	thresholds := [2]ThresholdFunc{
		func(int) float64 { return tau },
		func(s int) float64 { return stats.SchismThreshold(s, xi, n, tau) },
	}
	for i, algo := range []string{"CLIQUE", "SCHISM"} {
		units, st, err := denseUnitsReference(points, gridConfig{Xi: xi, Threshold: thresholds[i], MaxDim: maxDim})
		if err != nil {
			t.Fatal(err)
		}
		grid := unitsToClustersReference(units, xi)
		if want := (gridOutcome{units, st, grid, Clusters(grid)}); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s %s: result differs from the reference\n got: %+v\nwant: %+v", name, algo, got[i], want)
		}
	}
}

// joinCost counts the unit pairs the two searches' level joins visit.
func joinCost(out [2]gridOutcome) int {
	cost := 0
	for _, o := range out {
		for _, units := range o.Stats.UnitsPerDim {
			cost += units * units
		}
	}
	return cost
}

// TestCliqueEqualsReference pins the order of Units, Grid and Clusters, and
// the stats, to the fmt-keyed search on seeded inputs: the lib-paradigms
// shape at 10 seeds, and a 12-dimensional set whose key order is not the
// numeric one ("10:" sorts before "2:").
func TestCliqueEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pts := libPoints(t, seed, 500)
		checkGridEqualsReference(t, fmt.Sprintf("lib seed %d", seed), pts, 10, 0.03, 3, gridOutcomes(t, pts, 10, 0.03, 3))
	}
	ds, _, err := dataset.SubspaceData(7, 300, 12, []dataset.SubspaceSpec{
		{Dims: []int{2, 3, 10}, Size: 80, Width: 0.1},
		{Dims: []int{2, 9, 11}, Size: 70, Width: 0.1},
		{Dims: []int{0, 1, 10, 11}, Size: 60, Width: 0.12},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := gridOutcomes(t, ds.Points, 6, 0.05, 4)
	checkGridEqualsReference(t, "d=12", ds.Points, 6, 0.05, 4, got)
	if !hasUnitAbove(got[0].Units, 9) {
		t.Fatal("the d=12 case found no dense unit in dimensions 10 or 11")
	}
}

// hasUnitAbove reports whether a multi-dimensional unit uses a dimension
// above d, where the key order departs from the numeric order.
func hasUnitAbove(units []Unit, d int) bool {
	for _, u := range units {
		if len(u.Dims) > 1 && u.Dims[len(u.Dims)-1] > d {
			return true
		}
	}
	return false
}

// FuzzCliqueEqualsReference fuzzes the differential property: on up to 12
// objects in up to 12 dimensions, with planted subspace clusters and some
// coordinates snapped onto interval boundaries, CLIQUE and SCHISM must
// return exactly the reference's units, stats and clusters for whatever
// Xi, Tau and MaxDim the fuzzer picks. With a support threshold of one
// object the lattice holds every occupied cell of every subspace, and the
// reference's fmt-keyed joins over it can trip the fuzzer's per-input
// deadline ("fuzzing process hung"), which is not a mismatch; such inputs
// are skipped once the searches have counted their dense units.
func FuzzCliqueEqualsReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(12), uint8(4), 0.1, uint8(4), uint8(0))
	f.Add(int64(2), uint8(10), uint8(11), uint8(10), 0.2, uint8(0), uint8(128))
	f.Add(int64(3), uint8(6), uint8(3), uint8(1), 0.5, uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n, d, xi uint8, tau float64, maxDim, snap uint8) {
		nn := int(n)%12 + 1
		dd := int(d)%12 + 1
		xx := int(xi)%12 + 1
		if !(tau > 0 && tau < 1) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var specs []dataset.SubspaceSpec
		for c := rng.Intn(3); c > 0; c-- {
			specs = append(specs, dataset.SubspaceSpec{
				Dims:  rng.Perm(dd)[:1+rng.Intn(dd)],
				Size:  1 + rng.Intn(nn),
				Width: 0.05 + 0.3*rng.Float64(),
			})
		}
		ds, _, err := dataset.SubspaceData(rng.Int63(), nn, dd, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range ds.Points {
			for j := range row {
				if rng.Intn(256) < int(snap) {
					row[j] = math.Round(row[j]*float64(xx)) / float64(xx)
				}
			}
		}
		md := int(maxDim) % (dd + 2)
		got := gridOutcomes(t, ds.Points, xx, tau, md)
		if joinCost(got) > 1<<22 {
			t.Skip()
		}
		name := fmt.Sprintf("n=%d d=%d xi=%d tau=%g maxDim=%d", nn, dd, xx, tau, md)
		checkGridEqualsReference(t, name, ds.Points, xx, tau, md, got)
	})
}
