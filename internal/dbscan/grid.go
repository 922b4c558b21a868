package dbscan

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"multiclust/internal/dist"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// maxGridDims bounds the dimensionality served by the uniform grid: a
// region query probes the 3^d cells surrounding the query point, so past
// this the probe count approaches (or exceeds) the linear scan it is meant
// to replace and NewGridIndex declines.
const maxGridDims = 6

// chunkPoints is about how many points' lists one precompute task builds:
// a chunk of consecutive cells closes once it holds this many members. The
// chunks are handed out dynamically, so a chunk of dense cells does not
// hold up the workers that finished theirs.
const chunkPoints = 128

// GridIndex is a uniform-grid spatial index over a point set for Euclidean
// ε-region queries: every point is binned once into the cell of width
// slightly above eps containing it, and a query gathers candidates from the
// 3^d cells adjacent to the query point's cell before the exact distance
// filter. Two points within eps of each other differ by at most eps in
// every coordinate, so with cell width > eps their cells differ by at most
// one step per dimension — the adjacent-cell probe is exhaustive and the
// returned (ascending) neighbor lists are identical to the linear scan's.
// The cell width carries a small relative margin above eps so boundary
// rounding in the float64 binning can never push an in-range pair two cells
// apart.
//
// A cell is named by one uint64 key that packs its per-dimension offsets,
// the last dimension in the lowest bits, each in a field wide enough to
// hold the offset plus or minus one, so a neighbor cell's key is the
// cell's own plus or minus one step per field with no carry. The point
// indices are sorted once by (key, index), so each occupied cell is a run
// of that order and the cells ascend by key, which is the lexicographic
// order of their offsets. A point with a non-finite coordinate is within
// the finite eps of no point, not even itself, so it gets no cell.
type GridIndex struct {
	points [][]float64
	sq     float64 // dist.SqBound(eps): the ε-test on squared distances
	dims   int
	one    [maxGridDims]uint64 // one step in dimension j's key field
	order  []int               // cell members sorted by (key, index)
	start  []int               // cell c holds order[start[c]:start[c+1]]; one entry per cell plus one
	keys   []uint64            // cell c's key, ascending
	cellOf []int               // the cell of each point, -1 for a point with a non-finite coordinate
}

// NewGridIndex builds the index, or returns nil when the grid would not pay
// off or cannot serve the geometry — no points, dimensionality above
// maxGridDims, eps not positive and finite, no point with finite
// coordinates, or cell offsets whose fields together need more than 64
// bits — and callers fall back to the linear scan.
func NewGridIndex(points [][]float64, eps float64) *GridIndex {
	n := len(points)
	if n == 0 || !(eps > 0 && eps <= math.MaxFloat64) {
		return nil
	}
	dims := len(points[0])
	if dims == 0 || dims > maxGridDims {
		return nil
	}
	var minBuf, maxBuf [maxGridDims]float64
	mins, maxs := minBuf[:dims], maxBuf[:dims]
	for j := range mins {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
	}
	finite := 0
	for _, p := range points {
		if !finiteRow(p) {
			continue
		}
		finite++
		for j, v := range p {
			mins[j] = min(mins[j], v)
			maxs[j] = max(maxs[j], v)
		}
	}
	if finite == 0 {
		return nil
	}
	cw := eps * (1 + 1e-9)
	g := &GridIndex{points: points, sq: dist.SqBound(eps), dims: dims}
	// Dimension j's offsets run from 0 to span, stored plus one so that the
	// probe's offset minus one stays in the field: a field of
	// bits.Len64(span+2) bits holds every probed value.
	used := 0
	for j := dims - 1; j >= 0; j-- {
		span := (maxs[j] - mins[j]) / cw
		if !(span < 1<<62) { // an overflowed range is +Inf
			return nil
		}
		g.one[j] = 1 << used
		used += bits.Len64(uint64(span) + 2)
	}
	if used > 64 {
		return nil
	}
	pk := make([]keyed, 0, finite)
	for i, p := range points {
		if !finiteRow(p) {
			continue
		}
		var key uint64
		for j, v := range p {
			key += (uint64((v-mins[j])/cw) + 1) * g.one[j]
		}
		pk = append(pk, keyed{key, i})
	}
	pk = radixSort(pk, used)
	cells := 1
	for k := 1; k < len(pk); k++ {
		if pk[k].key != pk[k-1].key {
			cells++
		}
	}
	g.order = make([]int, len(pk))
	g.start = make([]int, 0, cells+1)
	g.keys = make([]uint64, 0, cells)
	g.cellOf = make([]int, n)
	for i := range g.cellOf {
		g.cellOf[i] = -1
	}
	for k, e := range pk {
		if k == 0 || e.key != pk[k-1].key {
			g.start = append(g.start, k)
			g.keys = append(g.keys, e.key)
		}
		g.order[k] = e.i
		g.cellOf[e.i] = len(g.keys) - 1
	}
	g.start = append(g.start, len(pk))
	return g
}

// keyed is a point's cell key and index.
type keyed struct {
	key uint64
	i   int
}

// radixSort sorts pk, given in ascending index order, by key in passes of
// one byte each over the low keyBits bits, lowest byte first. Each pass is
// stable, so the result is sorted by (key, index).
func radixSort(pk []keyed, keyBits int) []keyed {
	tmp := make([]keyed, len(pk))
	for shift := 0; shift < keyBits; shift += 8 {
		var at [256]int
		for _, e := range pk {
			at[byte(e.key>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b] = sum
			sum += c
		}
		for _, e := range pk {
			b := byte(e.key >> shift)
			tmp[at[b]] = e
			at[b]++
		}
		pk, tmp = tmp, pk
	}
	return pk
}

// finiteRow reports whether every coordinate of p is finite.
func finiteRow(p []float64) bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// cells returns the number of occupied cells.
func (g *GridIndex) cells() int { return len(g.keys) }

// appendCandidates appends to buf the members of the 3^dims cells adjacent
// to cell c, sorted ascending. Every point within eps of any point in cell
// c is among them (cell width > eps bounds the offset delta by one per
// dimension), so a distance filter over them — which visits candidates in
// ascending index order — yields the linear scan's neighbor list without
// any per-point sort.
//
// The cells that differ from a given cell only in the last offset have
// consecutive keys, so for each of the 3^(dims-1) offsets of the other
// dimensions one binary search finds the first cell at or after the
// lowest of those keys, and the up-to-three cells up to the highest are one
// run of the order.
func (g *GridIndex) appendCandidates(c int, buf []int) []int {
	d := g.dims
	var ones uint64 // one step in every field
	for _, one := range g.one[:d] {
		ones += one
	}
	// Odometer over the leading offsets, the last of them fastest, so the
	// probed keys ascend and each search starts where the last ended.
	var step [maxGridDims]int
	probe := g.keys[c] - ones
	from := len(buf)
	at := 0
	for {
		at = g.search(at, probe)
		to := at
		for to < g.cells() && g.keys[to] <= probe+2 {
			to++
		}
		buf = append(buf, g.order[g.start[at]:g.start[to]]...)
		at = to
		j := d - 2
		for ; j >= 0 && step[j] == 2; j-- {
			step[j] = 0
			probe -= 2 * g.one[j]
		}
		if j < 0 {
			break
		}
		step[j]++
		probe += g.one[j]
	}
	slices.Sort(buf[from:])
	return buf
}

// search returns the first cell at or after from whose key is not below
// key.
func (g *GridIndex) search(from int, key uint64) int {
	lo, hi := from, g.cells()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Neighbors returns the ascending indices of all points within eps of point
// o (including o itself) — byte-identical to the linear Euclidean scan,
// enforced by the differential tests in grid_test.go.
func (g *GridIndex) Neighbors(o int) []int {
	if g.cellOf[o] < 0 {
		return nil
	}
	p := g.points[o]
	var out []int
	for _, i := range g.appendCandidates(g.cellOf[o], nil) {
		if dist.SqEuclidean(p, g.points[i]) <= g.sq {
			out = append(out, i)
		}
	}
	return out
}

// PrecomputeGridNeighbors materializes every object's ε-neighborhood
// through a uniform-grid index (Euclidean metric), falling back to the
// linear scan when the grid declines the geometry. Counters land on rec,
// the caller's per-run recorder.
func PrecomputeGridNeighbors(rec *obs.Collector, points [][]float64, eps float64, workers int) NeighborFunc {
	g := NewGridIndex(points, eps)
	if g == nil {
		return precomputeNeighbors(rec, points, dist.Euclidean, eps, workers)
	}
	nbs := make([][]int, len(points))
	bounds := []int{0}
	for c, members := 0, 0; c < g.cells(); c++ {
		if members += g.start[c+1] - g.start[c]; members >= chunkPoints || c == g.cells()-1 {
			bounds = append(bounds, c+1)
			members = 0
		}
	}
	parallel.Each(len(bounds)-1, workers, func(k int) {
		s := scratchPool.Get().(*chunkScratch)
		g.chunkNeighbors(bounds[k], bounds[k+1], s, nbs)
		scratchPool.Put(s)
	})
	// One region query ran per object, exactly as in the linear precompute —
	// the counter tracks queries issued, not their internal cost, so the
	// linear and grid paths stay comparable in the bench reports.
	rec.Count("dbscan.region_queries", int64(len(points)))
	rec.Count("dbscan.grid_indexes", 1)
	return func(o int) []int { return nbs[o] }
}

// chunkScratch is a chunk's reusable buffers for chunkNeighbors: the
// candidates of its cells one after another, where each cell's end, and one
// hit bit per (member, candidate) pair.
type chunkScratch struct {
	cand []int
	ends []int
	hits []uint64
}

// scratchPool hands each chunk its scratch, so buffers are reused from
// chunk to chunk and from one grid to the next.
var scratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// chunkNeighbors writes the neighbor list of every member of the cells
// [lo, hi) into nbs. The queries are batched per occupied cell: every
// point of a cell shares the same 3^d candidate set, so the probe and the
// candidate sort run once per CELL rather than once per point, and the
// distance filter visits candidates in ascending index order, so each list
// comes out sorted. The filter marks hits in s.hits and counts them; the
// chunk's lists are then written into one exactly sized slab and cut with
// full slice expressions, so no caller's append can reach the next list.
func (g *GridIndex) chunkNeighbors(lo, hi int, s *chunkScratch, nbs [][]int) {
	s.cand, s.ends, s.hits = s.cand[:0], s.ends[:0], s.hits[:0]
	total := 0
	for c := lo; c < hi; c++ {
		from := len(s.cand)
		s.cand = g.appendCandidates(c, s.cand)
		cand := s.cand[from:]
		s.ends = append(s.ends, len(s.cand))
		for _, o := range g.order[g.start[c]:g.start[c+1]] {
			p := g.points[o]
			for w := 0; w < len(cand); w += 64 {
				var word uint64
				for b, i := range cand[w:min(w+64, len(cand))] {
					// A hit is as likely as not near a cluster's edge, so
					// the bit is set without a branch.
					var hit uint64
					if dist.SqEuclidean(p, g.points[i]) <= g.sq {
						hit = 1
					}
					word |= hit << b
				}
				s.hits = append(s.hits, word)
				total += bits.OnesCount64(word)
			}
		}
	}
	slab := make([]int, total)
	at, from, h := 0, 0, 0
	for k, c := 0, lo; c < hi; k, c = k+1, c+1 {
		cand := s.cand[from:s.ends[k]]
		from = s.ends[k]
		for _, o := range g.order[g.start[c]:g.start[c+1]] {
			first := at
			for w := 0; w < len(cand); w += 64 {
				for word := s.hits[h]; word != 0; word &= word - 1 {
					slab[at] = cand[w+bits.TrailingZeros64(word)]
					at++
				}
				h++
			}
			nbs[o] = slab[first:at:at]
		}
	}
}
