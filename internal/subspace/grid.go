// Package subspace implements the subspace-projection paradigm of the
// tutorial's section 4: bottom-up grid methods (CLIQUE, SCHISM), the
// density-based SUBCLU, the projected-clustering baselines PROCLUS and DOC,
// entropy-based subspace search (ENCLUS), and the result-optimization layer
// that turns the redundant set ALL into a meaningful set M (OSCLU, ASCLU,
// STATPC-lite, RESCU-lite).
package subspace

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strconv"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// Unit is one dense grid cell: an axis-parallel hyper-rectangle defined by
// one interval per relevant dimension, with the objects it holds.
type Unit struct {
	Dims      []int // ascending dimension indices
	Intervals []int // interval index per dimension (parallel to Dims)
	Objects   []int // ascending object indices inside the cell
}

// GridStats reports the work done by the bottom-up lattice search; the
// pruning effectiveness of the apriori monotonicity (slide 71) is
// CandidatesPruned / (CandidatesGenerated + CandidatesPruned).
type GridStats struct {
	CandidatesGenerated int         // candidates whose support was counted
	CandidatesPruned    int         // candidates rejected by the monotonicity check alone
	DenseUnits          int         // total dense units found
	UnitsPerDim         map[int]int // dense units by subspace dimensionality
}

// ThresholdFunc returns the minimum support (as a fraction of the database)
// for a unit of the given dimensionality. CLIQUE uses a constant; SCHISM a
// decreasing function.
type ThresholdFunc func(dim int) float64

// gridConfig is the shared configuration of the lattice search.
type gridConfig struct {
	Xi        int // intervals per dimension
	Threshold ThresholdFunc
	MaxDim    int // cap on subspace dimensionality (<=0: no cap)
}

// denseUnits runs the bottom-up apriori search for dense units over points
// that must already be normalized to [0,1] per dimension.
func denseUnits(points [][]float64, cfg gridConfig) ([]Unit, GridStats, error) {
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

	// The lattice search is serial, so per-level observations land in
	// deterministic order; obs.Default is resolved once because the miners
	// have no context parameter. The root span wraps the whole bottom-up
	// search, with one child span per lattice level — the level count is a
	// pure function of the data, so the span tree is deterministic.
	rec := obs.Default()
	ctx, endSpan := obs.SpanCtx(context.Background(), rec, "subspace.grid.search")
	defer endSpan()

	// Unit keys are rendered into one reused buffer; a key string is
	// allocated only when a dense unit is stored, and the map lookups of
	// string(key) do not allocate.
	var key []byte

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
					key = appendUnitKey(key[:0], u.Dims, u.Intervals, -1)
					level[string(key)] = u
				}
			}
		}
	}()
	keys := appendLevel(&all, level, &stats)
	observeLevel(rec, 1, stats, GridStats{})
	prev := level

	for s := 2; s <= cfg.MaxDim && len(prev) > 1; s++ {
		before := stats
		cur := make(map[string]*Unit)
		func() {
			_, end := obs.SpanCtx(ctx, rec, "subspace.grid.level")
			defer end()
			// The join runs over prev in key order: the keys appendLevel
			// sorted when it emitted the level.
			units := make([]*Unit, len(keys))
			for i, k := range keys {
				units[i] = prev[k]
			}
			mc := minCount(s)
			var dims, ivals []int // the joined candidate, reused
			var sub []byte        // sub-unit keys, reused
			for i := 0; i < len(units); i++ {
				for j := i + 1; j < len(units); j++ {
					a, b := units[i], units[j]
					if !joinable(a, b) {
						continue
					}
					dims, ivals = joinUnit(dims, ivals, a, b)
					key = appendUnitKey(key[:0], dims, ivals, -1)
					if _, seen := cur[string(key)]; seen {
						continue
					}
					// Apriori prune: every (s-1)-subunit must be dense.
					if !allSubunitsDense(dims, ivals, prev, &sub) {
						stats.CandidatesPruned++
						continue
					}
					stats.CandidatesGenerated++
					objs := intersectSorted(a.Objects, b.Objects)
					if len(objs) >= mc {
						cur[string(key)] = &Unit{Dims: slices.Clone(dims), Intervals: slices.Clone(ivals), Objects: objs}
					}
				}
			}
		}()
		keys = appendLevel(&all, cur, &stats)
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

// observeLevel emits the per-level trajectory of the apriori search — the
// slide-71 pruning curve — as (level, delta) samples. before holds the
// cumulative stats when the level started; UnitsPerDim is keyed by
// dimensionality, so the level's dense-unit count needs no delta.
func observeLevel(rec obs.Recorder, level int, after, before GridStats) {
	if rec == nil {
		return
	}
	obs.Observe(rec, "subspace.grid.level_candidates", level,
		float64(after.CandidatesGenerated-before.CandidatesGenerated))
	obs.Observe(rec, "subspace.grid.level_pruned", level,
		float64(after.CandidatesPruned-before.CandidatesPruned))
	obs.Observe(rec, "subspace.grid.level_dense", level, float64(after.UnitsPerDim[level]))
}

// appendLevel appends a level's dense units to all in key order and
// returns the sorted keys, the order in which the next level joins them.
func appendLevel(all *[]Unit, level map[string]*Unit, stats *GridStats) []string {
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
	return keys
}

// interval maps a normalized coordinate to its grid interval.
func interval(v float64, xi int) int {
	b := int(v * float64(xi))
	if b < 0 {
		b = 0
	}
	if b >= xi {
		b = xi - 1
	}
	return b
}

// appendUnitKey renders a unit without its dimension skip (skip < 0 keeps
// them all) as "d:i;" per dimension — the text fmt's "%d:%d;" gives, so the
// string order of the keys, and with it the order of every result, is the
// one the search has always had. Past ten dimensions that order is not
// the numeric one: "10:" sorts before "2:".
func appendUnitKey(buf []byte, dims, ivals []int, skip int) []byte {
	for i := range dims {
		if i == skip {
			continue
		}
		buf = strconv.AppendInt(buf, int64(dims[i]), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(ivals[i]), 10)
		buf = append(buf, ';')
	}
	return buf
}

// joinable reports whether two s-1 units share their first s-2 (dim,
// interval) pairs and end in different dimensions — the apriori join.
func joinable(a, b *Unit) bool {
	s := len(a.Dims)
	for i := 0; i < s-1; i++ {
		if a.Dims[i] != b.Dims[i] || a.Intervals[i] != b.Intervals[i] {
			return false
		}
	}
	return a.Dims[s-1] != b.Dims[s-1]
}

// joinUnit writes the join of a and b into dims and ivals, reusing their
// storage.
func joinUnit(dims, ivals []int, a, b *Unit) ([]int, []int) {
	s := len(a.Dims)
	dims = append(append(dims[:0], a.Dims...), b.Dims[s-1])
	ivals = append(append(ivals[:0], a.Intervals...), b.Intervals[s-1])
	// Keep dims ascending (the last two may be out of order).
	if dims[s] < dims[s-1] {
		dims[s], dims[s-1] = dims[s-1], dims[s]
		ivals[s], ivals[s-1] = ivals[s-1], ivals[s]
	}
	return dims, ivals
}

// allSubunitsDense checks the monotonicity condition: all (s-1)-dimensional
// projections of the candidate must themselves be dense. Dropping either of
// the last two dimensions gives back one of the two joined units, which are
// dense, so only the other drops are looked up. Their keys are rendered
// into *buf.
func allSubunitsDense(dims, ivals []int, prev map[string]*Unit, buf *[]byte) bool {
	for drop := 0; drop < len(dims)-2; drop++ {
		*buf = appendUnitKey((*buf)[:0], dims, ivals, drop)
		if _, ok := prev[string(*buf)]; !ok {
			return false
		}
	}
	return true
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// GridCluster is a subspace cluster assembled from adjacent dense units; it
// keeps the unit count and grid resolution so statistical selectors
// (STATPC) can compute the region's volume under the uniform null.
type GridCluster struct {
	core.SubspaceCluster
	Units int // dense units merged into this cluster
	Xi    int // grid resolution the units were found at
}

// unitsToClusters merges adjacent dense units per subspace into clusters
// (CLIQUE's cluster definition: connected dense units).
func unitsToClusters(units []Unit, xi int) []GridCluster {
	// Group units by subspace, keyed by the dims as fmt.Sprint renders them.
	bySub := map[string][]int{}
	subDims := map[string][]int{}
	var key []byte
	for i, u := range units {
		key = appendDimsKey(key[:0], u.Dims, -1)
		k := string(key)
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
		// Union-find over adjacent units.
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

// adjacentUnits reports whether two units of the same subspace share a face:
// intervals equal everywhere except one dimension where they differ by 1.
func adjacentUnits(a, b *Unit) bool {
	diff := 0
	for i := range a.Dims {
		d := a.Intervals[i] - b.Intervals[i]
		if d == 0 {
			continue
		}
		if d == 1 || d == -1 {
			diff++
			if diff > 1 {
				return false
			}
			continue
		}
		return false
	}
	return diff == 1
}

// Clusters converts grid clusters to the shared result type.
func Clusters(gcs []GridCluster) core.SubspaceClustering {
	out := make(core.SubspaceClustering, len(gcs))
	for i, g := range gcs {
		out[i] = g.SubspaceCluster
	}
	return out
}
