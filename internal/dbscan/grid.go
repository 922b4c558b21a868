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

// maxCellSpan bounds the per-dimension cell-coordinate range. Beyond it the
// int64 cell arithmetic could overflow (coordinate range / eps close to
// 2^63) and NewGridIndex declines in favor of the linear scan.
const maxCellSpan = 1e15

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
// The point indices are sorted once by (cell coordinate, index), so each
// occupied cell is a run of that order and the cells are in lexicographic
// coordinate order. Three flat arrays describe them: each
// cell's start in the order, each cell's coordinate, and each point's cell.
type GridIndex struct {
	points [][]float64
	sq     float64 // dist.SqBound(eps): the ε-test on squared distances
	dims   int
	order  []int   // point indices sorted by (cell coordinate, index)
	start  []int   // cell c holds order[start[c]:start[c+1]]; one entry per cell plus one
	coord  []int64 // cell c's coordinate is coord[c*dims : (c+1)*dims]
	cellOf []int   // the cell of each point
}

// NewGridIndex builds the index, or returns nil when the grid would not pay
// off (no points, dimensionality above maxGridDims, or a degenerate
// coordinate-range/eps ratio) — callers fall back to the linear scan.
func NewGridIndex(points [][]float64, eps float64) *GridIndex {
	n := len(points)
	if n == 0 || eps <= 0 {
		return nil
	}
	dims := len(points[0])
	if dims == 0 || dims > maxGridDims {
		return nil
	}
	var minBuf, maxBuf [maxGridDims]float64
	mins, maxs := minBuf[:dims], maxBuf[:dims]
	copy(mins, points[0])
	copy(maxs, points[0])
	for _, p := range points[1:] {
		for j, v := range p {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	cw := eps * (1 + 1e-9)
	for j := range mins {
		if (maxs[j]-mins[j])/cw > maxCellSpan {
			return nil
		}
	}
	pc := make([]int64, n*dims) // each point's cell coordinate
	order := make([]int, n)
	for i, p := range points {
		for j, v := range p {
			pc[i*dims+j] = int64((v - mins[j]) / cw)
		}
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(pc[a*dims:(a+1)*dims], pc[b*dims:(b+1)*dims]); c != 0 {
			return c
		}
		return a - b
	})
	// A new cell starts wherever the coordinate changes along the order.
	row := func(k int) []int64 { return pc[order[k]*dims : (order[k]+1)*dims] }
	cells := 1
	for k := 1; k < n; k++ {
		if !slices.Equal(row(k), row(k-1)) {
			cells++
		}
	}
	g := &GridIndex{
		points: points,
		sq:     dist.SqBound(eps),
		dims:   dims,
		order:  order,
		start:  make([]int, 0, cells+1),
		coord:  make([]int64, 0, cells*dims),
		cellOf: make([]int, n),
	}
	for k, i := range order {
		if k == 0 || !slices.Equal(row(k), row(k-1)) {
			g.start = append(g.start, k)
			g.coord = append(g.coord, row(k)...)
		}
		g.cellOf[i] = len(g.start) - 1
	}
	g.start = append(g.start, n)
	return g
}

// cells returns the number of occupied cells.
func (g *GridIndex) cells() int { return len(g.start) - 1 }

// candidates gathers into buf the members of the 3^dims cells adjacent to
// cell c, sorted ascending. Every point within eps of any point in cell c
// is among them (cell width > eps bounds the coordinate delta by one per
// dimension), so a distance filter over the returned slice — which visits
// candidates in ascending index order — yields the linear scan's neighbor
// list without any per-point sort.
//
// The cells that differ from a given cell only in the last coordinate
// follow it directly in the cell order, so for each of the 3^(dims-1)
// offsets of the other coordinates one binary search finds the first cell
// at or after (base+offset, last-1), and the up-to-three cells of that
// offset hold one contiguous run of the order. An offset that would leave
// the int64 range is skipped. Finite values bin into [0, maxCellSpan], so
// only a NaN lands at either end: a NaN point, which is no point's
// neighbor, or every point at once, when a NaN first point made that
// dimension's minimum NaN, and then offset zero holds them all.
func (g *GridIndex) candidates(c int, buf []int) []int {
	d := g.dims
	var lo, hi [maxGridDims]int64
	for j, v := range g.coord[c*d : (c+1)*d] {
		lo[j], hi[j] = v, v
		if v > math.MinInt64 {
			lo[j] = v - 1
		}
		if v < math.MaxInt64 {
			hi[j] = v + 1
		}
	}
	// Odometer over the leading coordinates, the last of them fastest, so
	// the probed keys ascend and each search starts where the last ended.
	key := lo
	buf = buf[:0]
	from := 0
	for {
		from = g.search(from, key[:d])
		to := from
		for to < g.cells() && g.hasPrefix(to, key[:d-1]) && g.coord[to*d+d-1] <= hi[d-1] {
			to++
		}
		buf = append(buf, g.order[g.start[from]:g.start[to]]...)
		from = to
		j := d - 2
		for ; j >= 0 && key[j] == hi[j]; j-- {
			key[j] = lo[j]
		}
		if j < 0 {
			break
		}
		key[j]++
	}
	slices.Sort(buf)
	return buf
}

// search returns the first cell at or after from whose coordinate is not
// below key in lexicographic order.
func (g *GridIndex) search(from int, key []int64) int {
	lo, hi := from, g.cells()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slices.Compare(g.coord[mid*g.dims:(mid+1)*g.dims], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasPrefix reports whether cell c's leading coordinates equal prefix.
func (g *GridIndex) hasPrefix(c int, prefix []int64) bool {
	return slices.Equal(g.coord[c*g.dims:c*g.dims+len(prefix)], prefix)
}

// Neighbors returns the ascending indices of all points within eps of point
// o (including o itself) — byte-identical to the linear Euclidean scan,
// enforced by the differential tests in grid_test.go.
func (g *GridIndex) Neighbors(o int) []int {
	p := g.points[o]
	var out []int
	for _, i := range g.candidates(g.cellOf[o], nil) {
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
	parallel.Each(g.cells(), workers, func(c int) {
		s := scratchPool.Get().(*cellScratch)
		g.cellNeighbors(c, s, nbs)
		scratchPool.Put(s)
	})
	// One region query ran per object, exactly as in the linear precompute —
	// the counter tracks queries issued, not their internal cost, so the
	// linear and grid paths stay comparable in the bench reports.
	rec.Count("dbscan.region_queries", int64(len(points)))
	rec.Count("dbscan.grid_indexes", 1)
	return func(o int) []int { return nbs[o] }
}

// cellScratch is a worker's reusable buffers for cellNeighbors: the cell's
// candidates and one hit bit per (member, candidate) pair.
type cellScratch struct {
	cand []int
	hits []uint64
}

// scratchPool hands each precompute worker its scratch, so buffers are
// reused from cell to cell and from one grid to the next.
var scratchPool = sync.Pool{New: func() any { return new(cellScratch) }}

// cellNeighbors writes the neighbor list of every member of cell c into
// nbs. The queries are batched per occupied cell: every point of a cell
// shares the same 3^d candidate set, so the probe and the candidate sort
// run once per CELL rather than once per point, and the distance filter
// visits candidates in ascending index order, so each list comes out
// sorted. The filter marks hits in s.hits and counts them; the cell's lists
// are then written into one exactly sized slab and cut with full slice
// expressions, so no caller's append can reach the next list.
func (g *GridIndex) cellNeighbors(c int, s *cellScratch, nbs [][]int) {
	s.cand = g.candidates(c, s.cand)
	cand := s.cand
	members := g.order[g.start[c]:g.start[c+1]]
	words := (len(cand) + 63) / 64
	if cap(s.hits) < len(members)*words {
		s.hits = make([]uint64, len(members)*words)
	}
	hits := s.hits[:len(members)*words]
	total := 0
	for m, o := range members {
		p := g.points[o]
		for w := range words {
			var word uint64
			for b, i := range cand[w*64 : min(w*64+64, len(cand))] {
				if dist.SqEuclidean(p, g.points[i]) <= g.sq {
					word |= 1 << b
				}
			}
			hits[m*words+w] = word
			total += bits.OnesCount64(word)
		}
	}
	slab := make([]int, total)
	at := 0
	for m, o := range members {
		from := at
		for w, word := range hits[m*words : (m+1)*words] {
			for ; word != 0; word &= word - 1 {
				slab[at] = cand[w<<6|bits.TrailingZeros64(word)]
				at++
			}
		}
		nbs[o] = slab[from:at:at]
	}
}
