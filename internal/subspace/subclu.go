package subspace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"multiclust/internal/core"
	"multiclust/internal/dbscan"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
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
// the grid's exact ε-test, so the result is identical to building a grid
// for every candidate subspace.
func Subclu(points [][]float64, cfg SubcluConfig) (*SubcluResult, error) {
	return SubcluContext(context.Background(), points, cfg)
}

// SubcluContext is Subclu with cancellation: ctx is checked before each
// level and handed to every DBSCAN run. When it is done, the clusters of
// the completed levels are returned wrapped in core.ErrInterrupted; the
// interrupted level contributes nothing, so the result is the same for any
// worker count. With a background context the output is byte-identical to
// Subclu.
//
// The candidates of one level depend only on the level before it, which
// is complete and stored when they are joined, so each level's candidates
// are examined concurrently and gathered in join order.
func SubcluContext(ctx context.Context, points [][]float64, cfg SubcluConfig) (*SubcluResult, error) {
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

	// The per-level examined counts trace how hard the anti-monotonicity
	// prune is working. The root span wraps the whole walk with one child
	// span per lattice level, and each DBSCAN run receives the level's
	// context so its own span nests beneath the level that dispatched it.
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "subspace.subclu.search")
	defer endSpan()

	// The level fan-out's count is the default one capped at GOMAXPROCS,
	// as parallel caps any defaulted count.
	sc := &subcluSearch{points: points, cfg: cfg, rec: rec, workers: min(parallel.Workers(0), runtime.GOMAXPROCS(0))}
	sc.scratch.New = func() any { return new(walkScratch) }

	// Level 1: every single dimension over the full database.
	allObjects := make([]int, n)
	for i := range allObjects {
		allObjects[i] = i
	}
	cands := make([]candidate, d)
	for j := range cands {
		cands[j] = candidate{dims: []int{j}, objects: allObjects}
	}
	level, err := sc.examineLevel(ctx, res, 1, cands)
	for s := 2; err == nil && s <= cfg.MaxDim && len(level) > 1; s++ {
		level, err = sc.examineLevel(ctx, res, s, joinLevel(level))
	}
	if rec != nil {
		rec.Count("subspace.subclu.runs", 1)
		rec.Count("subspace.subclu.subspaces_examined", int64(res.SubspacesExamined))
		rec.Count("subspace.subclu.subspaces_clustered", int64(res.SubspacesWithClust))
	}
	if err != nil && !errors.Is(err, core.ErrInterrupted) {
		return nil, err
	}
	return res, err
}

// candidate is one subspace to examine: its dims, the ascending objects
// DBSCAN runs over, and the parent's stored neighborhoods over exactly
// those objects (nil on level 1 and wherever a grid is built instead).
type candidate struct {
	dims    []int
	objects []int
	parent  *neighborhoods
}

// joinLevel enumerates the next level's candidates from the clustered
// subspaces of the current one, in join order. The join order is the
// string order of the rendered dims, which past ten dimensions differs from
// the numeric order ("[2 10]" sorts before "[2 3]"); the output's cluster
// order follows it. Each candidate's objects are built here, on the walking
// goroutine, because siblings sharing a parent would otherwise race to
// build its lazily built union.
func joinLevel(level []*subInfo) []candidate {
	sort.Slice(level, func(i, j int) bool { return level[i].key < level[j].key })
	byKey := make(map[string]*subInfo, len(level))
	for _, si := range level {
		byKey[si.key] = si
	}
	// Each s-subspace joins from exactly one pair, itself minus one of its
	// two largest dims, so none is examined twice.
	var cands []candidate
	var key []byte
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			dims, ok := joinDims(level[i].dims, level[j].dims)
			if !ok {
				continue
			}
			// Apriori prune: all (s-1)-subsets must contain clusters.
			// The run is restricted to the objects of the parent with the
			// fewest clustered objects (the first one on ties).
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
			if parent != nil {
				cands = append(cands, candidate{dims: dims, objects: parent.objects(), parent: parent.nb})
			}
		}
	}
	return cands
}

// add appends the clusters of one clustered subspace to the result.
func (res *SubcluResult) add(si *subInfo) {
	res.SubspacesWithClust++
	for _, c := range si.clusters {
		res.Clusters = append(res.Clusters, core.NewSubspaceCluster(c, si.dims))
	}
}

// subcluSearch is what every candidate subspace of one SUBCLU search
// shares: the data, the configuration, the recorder, the level fan-out's
// worker count and the idle scratch buffers.
type subcluSearch struct {
	points  [][]float64
	cfg     SubcluConfig
	rec     *obs.Collector
	workers int
	scratch sync.Pool // idle *walkScratch, which the next candidate reuses
}

// walkScratch is one worker's buffers, reused from one candidate subspace
// to the next.
type walkScratch struct {
	coords []float64 // candidate coordinates in the subspace, row-major
	rows   [][]float64
	idx    []int // derived neighbor lists, flat
	off    []int
	pos    []int // candidate position → clustered-object position, -1 for noise
}

// examineLevel examines the candidate subspaces of level s concurrently,
// each on scratch of its own, then adds the clustered ones to res and
// counts the examined ones in join order, so the clusters, the counters and
// the level series are those of the serial walk. The level's MinPts is
// resolved once here: it depends only on the dimensionality, and a
// caller's hook is then never called concurrently. A candidate's grid gets
// the workers the level leaves over, at least one. When ctx is done the
// level is dropped whole.
func (sc *subcluSearch) examineLevel(ctx context.Context, res *SubcluResult, s int, cands []candidate) ([]*subInfo, error) {
	if err := interrupted(ctx, s); err != nil {
		return nil, err
	}
	minPts := sc.cfg.MinPts
	if sc.cfg.MinPtsAt != nil {
		if v := sc.cfg.MinPtsAt(s); v > 0 {
			minPts = v
		}
	}
	lctx, end := obs.SpanCtx(ctx, sc.rec, "subspace.subclu.level")
	defer end()
	inner := max(1, sc.workers/max(1, len(cands)))
	type examined struct {
		si  *subInfo
		err error
	}
	outs := parallel.Map(len(cands), sc.workers, func(i int) examined {
		ws := sc.scratch.Get().(*walkScratch)
		defer sc.scratch.Put(ws)
		si, err := sc.examine(lctx, ws, cands[i], minPts, inner)
		return examined{si, err}
	})
	if err := interrupted(ctx, s); err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}
	res.SubspacesExamined += len(cands)
	var next []*subInfo
	for _, o := range outs {
		if o.si != nil {
			next = append(next, o.si)
			res.add(o.si)
		}
	}
	sc.rec.Observe("subspace.subclu.level_examined", s, float64(len(cands)))
	return next, nil
}

// interrupted returns, once ctx is done, the error of a search cut at
// level s, wrapping core.ErrInterrupted; nil before.
func interrupted(ctx context.Context, s int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("subspace: subclu interrupted at level %d: %v: %w", s, err, core.ErrInterrupted)
	}
	return nil
}

// examine runs DBSCAN with minPts in subspace c.dims over the objects
// c.objects on the scratch ws and returns the subspace's record, or nil
// when it holds no cluster. With a nil c.parent the neighborhoods come
// from dbscan's grid on up to workers workers; otherwise they are derived
// from the parent's stored lists. The record keeps its own lists when a
// later level will derive from them. A done ctx is returned as its error,
// and DBSCAN's error is returned as it is.
func (sc *subcluSearch) examine(ctx context.Context, ws *walkScratch, c candidate, minPts, workers int) (*subInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cand := c.objects
	rows := sc.subspaceRows(ws, c.dims, cand)
	var nf dbscan.NeighborFunc
	if c.parent == nil {
		nf = sc.gridNeighbors(ctx, rows, workers)
	} else {
		nf = sc.derive(ctx, ws, rows, c.parent)
	}
	cl, err := dbscan.RunGenericContext(ctx, len(cand), nf, minPts)
	if err != nil {
		return nil, err
	}
	si := &subInfo{dims: c.dims, key: string(appendDimsKey(nil, c.dims, -1))}
	for _, members := range cl.Clusters() {
		orig := make([]int, len(members))
		for i, m := range members {
			orig[i] = cand[m]
		}
		si.clusters = append(si.clusters, orig)
		si.size += len(orig)
	}
	if len(si.clusters) == 0 {
		return nil, nil
	}
	if len(c.dims) >= 2 && len(c.dims) < sc.cfg.MaxDim {
		si.nb = ws.store(cand, si.objects(), nf)
	}
	return si, nil
}

// subspaceRows projects the candidates onto dims, one row per candidate,
// into buffers reused across subspaces: the grid and the derivation both
// read the rows only while the subspace is being examined.
func (sc *subcluSearch) subspaceRows(ws *walkScratch, dims, cand []int) [][]float64 {
	s := len(dims)
	ws.coords = grow(ws.coords, len(cand)*s)
	ws.rows = grow(ws.rows, len(cand))
	for i, o := range cand {
		row := ws.coords[i*s : (i+1)*s : (i+1)*s]
		for j, dim := range dims {
			row[j] = sc.points[o][dim]
		}
		ws.rows[i] = row
	}
	return ws.rows
}

// gridNeighbors precomputes the neighborhoods of rows through dbscan's
// uniform grid on workers workers, as dbscan.RunContext does, under the
// same span name.
func (sc *subcluSearch) gridNeighbors(ctx context.Context, rows [][]float64, workers int) dbscan.NeighborFunc {
	_, end := obs.SpanCtx(ctx, sc.rec, "dbscan.neighbors")
	defer end()
	return dbscan.PrecomputeGridNeighbors(sc.rec, rows, sc.cfg.Eps, workers)
}

// derive builds the neighborhoods of a subspace whose candidates are the
// clustered objects of its parent, from the parent's stored lists over
// those same objects. Adding the new dimension's non-negative term to the
// rounded running sum of squares can never lower it, so every pair within
// ε here is on the parent's list. Re-testing each listed pair with the
// grid's own test, the squared distance on the projected rows against
// dist.SqBound(ε), therefore yields exactly the grid's lists, in the same
// ascending order. Each derived neighborhood counts as one region query,
// as a grid query does. The lists are built in ws.
func (sc *subcluSearch) derive(ctx context.Context, ws *walkScratch, rows [][]float64, parent *neighborhoods) dbscan.NeighborFunc {
	_, end := obs.SpanCtx(ctx, sc.rec, "subspace.subclu.derive")
	defer end()
	sq := dist.SqBound(sc.cfg.Eps)
	idx, off := ws.idx[:0], append(ws.off[:0], 0)
	for k, row := range rows {
		for _, q := range parent.list(k) {
			if dist.SqEuclidean(row, rows[q]) <= sq {
				idx = append(idx, int(q))
			}
		}
		off = append(off, len(idx))
	}
	ws.idx, ws.off = idx, off
	sc.rec.Count("dbscan.region_queries", int64(len(rows)))
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
func (ws *walkScratch) store(cand, objects []int, nf dbscan.NeighborFunc) *neighborhoods {
	ws.pos = grow(ws.pos, len(cand))
	k := 0
	for i, o := range cand {
		ws.pos[i] = -1
		if k < len(objects) && objects[k] == o {
			ws.pos[i] = k
			k++
		}
	}
	off := make([]int, len(objects)+1)
	for i := range cand {
		if k := ws.pos[i]; k >= 0 {
			off[k+1] = off[k]
			for _, q := range nf(i) {
				if ws.pos[q] >= 0 {
					off[k+1]++
				}
			}
		}
	}
	idx := make([]int32, 0, off[len(objects)])
	for i := range cand {
		if ws.pos[i] >= 0 {
			for _, q := range nf(i) {
				if k := ws.pos[q]; k >= 0 {
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
