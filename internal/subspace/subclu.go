package subspace

import (
	"context"
	"errors"
	"sort"
	"strconv"

	"multiclust/internal/core"
	"multiclust/internal/dbscan"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
)

// SubcluConfig controls a SUBCLU run (Kailing et al. 2004b, slide 74).
type SubcluConfig struct {
	Eps    float64 // DBSCAN radius (in the subspace distance)
	MinPts int     // DBSCAN core threshold
	MaxDim int     // cap on subspace dimensionality (<=0: data dimensionality)
	// MinPtsAt optionally overrides MinPts per subspace dimensionality —
	// the hook DUSC uses for its dimensionality-unbiased density threshold.
	MinPtsAt func(dim int) int
}

// SubcluResult carries the density-connected subspace clusters and the
// subspaces examined.
type SubcluResult struct {
	Clusters           core.SubspaceClustering
	SubspacesExamined  int
	SubspacesWithClust int
}

// Subclu finds density-connected clusters in all subspaces. It exploits the
// anti-monotonicity of density-connected sets: a cluster in subspace S is
// contained in clusters of every subset of S, so candidate subspaces are
// generated apriori-style from subspaces that contained clusters, and each
// DBSCAN run at level k is restricted to the objects clustered in the
// best (smallest) (k-1)-dimensional parent — the paper's main efficiency
// device. Unlike grid methods, arbitrarily shaped clusters survive.
//
// The same monotonicity holds for ε-neighborhoods: the distance in S sums
// one more non-negative term than the distance in its parent, so every
// ε-neighborhood in S lies inside the parent's. Levels 1 and 2 build
// their neighborhoods with dbscan's uniform grid; from level 3 on each
// candidate's lists are its smallest parent's stored lists re-tested with
// the grid's exact distance expression, so the result is identical to
// building a grid for every candidate subspace.
func Subclu(points [][]float64, cfg SubcluConfig) (*SubcluResult, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.Eps <= 0 || cfg.MinPts <= 0 {
		return nil, errors.New("subspace: Eps and MinPts must be positive")
	}
	d := len(points[0])
	if cfg.MaxDim <= 0 || cfg.MaxDim > d {
		cfg.MaxDim = d
	}
	res := &SubcluResult{}

	// The apriori walk over subspaces is serial; the per-level examined
	// counts trace how hard the anti-monotonicity prune is working. The
	// root span wraps the whole walk with one child span per lattice
	// level, and each DBSCAN run receives the level's context so its own
	// span nests beneath the level that dispatched it.
	rec := obs.Default()
	ctx, endSpan := obs.SpanCtx(context.Background(), rec, "subspace.subclu.search")
	defer endSpan()

	w := &subcluWalk{points: points, cfg: cfg, rec: rec}

	// Level 1: every single dimension over the full database.
	allObjects := make([]int, n)
	for i := range allObjects {
		allObjects[i] = i
	}
	var level []*subInfo
	func() {
		lctx, end := obs.SpanCtx(ctx, rec, "subspace.subclu.level")
		defer end()
		for j := 0; j < d; j++ {
			res.SubspacesExamined++
			if si := w.examine(lctx, []int{j}, allObjects, nil); si != nil {
				level = append(level, si)
				res.add(si)
			}
		}
	}()
	obs.Observe(rec, "subspace.subclu.level_examined", 1, float64(res.SubspacesExamined))

	for s := 2; s <= cfg.MaxDim && len(level) > 1; s++ {
		examinedBefore := res.SubspacesExamined
		// The join order is the string order of the rendered dims, which
		// past ten dimensions differs from the numeric order ("[2 10]"
		// sorts before "[2 3]"); the output's cluster order follows it.
		sort.Slice(level, func(i, j int) bool { return level[i].key < level[j].key })
		byKey := make(map[string]*subInfo, len(level))
		for _, si := range level {
			byKey[si.key] = si
		}
		var next []*subInfo
		func() {
			lctx, end := obs.SpanCtx(ctx, rec, "subspace.subclu.level")
			defer end()
			// Each s-subspace joins from exactly one pair, itself minus
			// one of its two largest dims, so none is examined twice.
			var key []byte
			for i := 0; i < len(level); i++ {
				for j := i + 1; j < len(level); j++ {
					dims, ok := joinDims(level[i].dims, level[j].dims)
					if !ok {
						continue
					}
					// Apriori prune: all (s-1)-subsets must contain clusters.
					// The run is restricted to the objects of the parent with
					// the fewest clustered objects (the first one on ties).
					var parent *subInfo
					for drop := range dims {
						key = appendDimsKey(key[:0], dims, drop)
						si, ok := byKey[string(key)]
						if !ok {
							parent = nil
							break
						}
						if parent == nil || si.size < parent.size {
							parent = si
						}
					}
					if parent == nil {
						continue
					}
					res.SubspacesExamined++
					if si := w.examine(lctx, dims, parent.objects(), parent.nb); si != nil {
						next = append(next, si)
						res.add(si)
					}
				}
			}
		}()
		obs.Observe(rec, "subspace.subclu.level_examined", s, float64(res.SubspacesExamined-examinedBefore))
		level = next
	}
	if rec != nil {
		obs.Count(rec, "subspace.subclu.runs", 1)
		obs.Count(rec, "subspace.subclu.subspaces_examined", int64(res.SubspacesExamined))
		obs.Count(rec, "subspace.subclu.subspaces_clustered", int64(res.SubspacesWithClust))
	}
	return res, nil
}

// add appends the clusters of one clustered subspace to the result.
func (res *SubcluResult) add(si *subInfo) {
	res.SubspacesWithClust++
	for _, c := range si.clusters {
		res.Clusters = append(res.Clusters, core.NewSubspaceCluster(c, si.dims))
	}
}

// subcluWalk holds what every subspace run of one SUBCLU search shares,
// including scratch buffers reused from one candidate subspace to the next.
type subcluWalk struct {
	points [][]float64
	cfg    SubcluConfig
	rec    obs.Recorder

	coords []float64 // candidate coordinates in the subspace, row-major
	rows   [][]float64
	idx    []int // derived neighbor lists, flat
	off    []int
	pos    []int // candidate position → clustered-object position, -1 for noise
}

// examine runs DBSCAN in subspace dims over the candidate objects cand
// (ascending indices into points) and returns the subspace's record, or
// nil when it holds no cluster. With a nil parent the neighborhoods come
// from dbscan's grid; otherwise cand is the parent's clustered objects and
// the neighborhoods are derived from the parent's stored lists. The record
// keeps its own lists when a later level will derive from them.
func (w *subcluWalk) examine(ctx context.Context, dims, cand []int, parent *neighborhoods) *subInfo {
	rows := w.subspaceRows(dims, cand)
	var nf dbscan.NeighborFunc
	if parent == nil {
		nf = w.gridNeighbors(ctx, rows)
	} else {
		nf = w.derive(ctx, rows, parent)
	}
	minPts := w.cfg.MinPts
	if w.cfg.MinPtsAt != nil {
		if v := w.cfg.MinPtsAt(len(dims)); v > 0 {
			minPts = v
		}
	}
	c, err := dbscan.RunGenericContext(ctx, len(cand), nf, minPts)
	if err != nil {
		return nil
	}
	si := &subInfo{dims: dims, key: string(appendDimsKey(nil, dims, -1))}
	for _, members := range c.Clusters() {
		orig := make([]int, len(members))
		for i, m := range members {
			orig[i] = cand[m]
		}
		si.clusters = append(si.clusters, orig)
		si.size += len(orig)
	}
	if len(si.clusters) == 0 {
		return nil
	}
	if len(dims) >= 2 && len(dims) < w.cfg.MaxDim {
		si.nb = w.store(cand, si.objects(), nf)
	}
	return si
}

// subspaceRows projects the candidates onto dims, one row per candidate,
// into buffers reused across subspaces: the grid and the derivation both
// read the rows only while the subspace is being examined.
func (w *subcluWalk) subspaceRows(dims, cand []int) [][]float64 {
	s := len(dims)
	w.coords = grow(w.coords, len(cand)*s)
	w.rows = grow(w.rows, len(cand))
	for i, o := range cand {
		row := w.coords[i*s : (i+1)*s : (i+1)*s]
		for j, dim := range dims {
			row[j] = w.points[o][dim]
		}
		w.rows[i] = row
	}
	return w.rows
}

// gridNeighbors precomputes the neighborhoods of rows through dbscan's
// uniform grid, as dbscan.RunContext does, under the same span name.
func (w *subcluWalk) gridNeighbors(ctx context.Context, rows [][]float64) dbscan.NeighborFunc {
	_, end := obs.SpanCtx(ctx, w.rec, "dbscan.neighbors")
	defer end()
	return dbscan.PrecomputeGridNeighbors(rows, w.cfg.Eps, 0)
}

// derive builds the neighborhoods of a subspace whose candidates are the
// clustered objects of its parent, from the parent's stored lists over
// those same objects. Adding the new dimension's non-negative term to the
// rounded running sum can never lower it, so every pair within ε here is
// on the parent's list. Re-testing each listed pair with dist.Euclidean on
// the projected rows — the grid's own test — therefore yields exactly the
// grid's lists, in the same ascending order. Each derived neighborhood
// counts as one region query, as a grid query does.
func (w *subcluWalk) derive(ctx context.Context, rows [][]float64, parent *neighborhoods) dbscan.NeighborFunc {
	_, end := obs.SpanCtx(ctx, w.rec, "subspace.subclu.derive")
	defer end()
	idx, off := w.idx[:0], append(w.off[:0], 0)
	for k, row := range rows {
		for _, q := range parent.list(k) {
			if dist.Euclidean(row, rows[q]) <= w.cfg.Eps {
				idx = append(idx, int(q))
			}
		}
		off = append(off, len(idx))
	}
	w.idx, w.off = idx, off
	obs.Count(w.rec, "dbscan.region_queries", int64(len(rows)))
	return func(o int) []int { return idx[off[o]:off[o+1]:off[o+1]] }
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// neighborhoods is one subspace's stored ε-neighborhoods, kept only over
// its clustered objects: those are the candidates of every child that
// picks it as smallest parent, so no other entry is ever read. The list
// of object i is idx[off[i]:off[i+1]], ascending positions into the same
// ascending objects. Positions are int32 to halve the store; the points
// themselves take far more memory than 2^31 positions would.
type neighborhoods struct {
	idx []int32
	off []int
}

// store copies the lists nf serves for the candidates cand into one
// exactly sized store over objects, the clustered candidates, dropping
// every noise object from the rows and from the lists.
func (w *subcluWalk) store(cand, objects []int, nf dbscan.NeighborFunc) *neighborhoods {
	w.pos = grow(w.pos, len(cand))
	k := 0
	for i, o := range cand {
		w.pos[i] = -1
		if k < len(objects) && objects[k] == o {
			w.pos[i] = k
			k++
		}
	}
	off := make([]int, len(objects)+1)
	for i := range cand {
		if k := w.pos[i]; k >= 0 {
			off[k+1] = off[k]
			for _, q := range nf(i) {
				if w.pos[q] >= 0 {
					off[k+1]++
				}
			}
		}
	}
	idx := make([]int32, 0, off[len(objects)])
	for i := range cand {
		if w.pos[i] >= 0 {
			for _, q := range nf(i) {
				if k := w.pos[q]; k >= 0 {
					idx = append(idx, int32(k))
				}
			}
		}
	}
	return &neighborhoods{idx: idx, off: off}
}

func (nb *neighborhoods) list(i int) []int32 { return nb.idx[nb.off[i]:nb.off[i+1]] }

// joinDims merges two ascending dim sets sharing all but their last element.
func joinDims(a, b []int) ([]int, bool) {
	s := len(a)
	for i := 0; i < s-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	if a[s-1] == b[s-1] {
		return nil, false
	}
	lo, hi := a[s-1], b[s-1]
	if lo > hi {
		lo, hi = hi, lo
	}
	out := append(append([]int(nil), a[:s-1]...), lo, hi)
	return out, true
}

// appendDimsKey renders dims without dims[skip] (skip < 0 keeps them all)
// as fmt.Sprint would, "[0 3 7]", without fmt's per-call allocations.
func appendDimsKey(buf []byte, dims []int, skip int) []byte {
	buf = append(buf, '[')
	first := true
	for i, d := range dims {
		if i == skip {
			continue
		}
		if !first {
			buf = append(buf, ' ')
		}
		first = false
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	return append(buf, ']')
}

// subInfo records the clusters found in one subspace.
type subInfo struct {
	dims     []int
	key      string  // dims rendered by appendDimsKey: the lookup key and the level order
	clusters [][]int // disjoint, so size is the number of clustered objects
	size     int
	union    []int          // ascending clustered objects, built on first use
	nb       *neighborhoods // stored lists, nil unless a later level derives from them
}

// objects returns the ascending union of the subspace's clusters — the
// candidates of every child that picks it as smallest parent. DBSCAN's
// clusters are disjoint, so the union is a concatenation and one sort.
func (si *subInfo) objects() []int {
	if si.union == nil {
		si.union = make([]int, 0, si.size)
		for _, c := range si.clusters {
			si.union = append(si.union, c...)
		}
		sort.Ints(si.union)
	}
	return si.union
}
