package dbscan

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
)

// randomPoints draws n seeded points in [0, spread)^dims.
func randomPoints(seed int64, n, dims int, spread float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.Float64() * spread
		}
		pts[i] = row
	}
	return pts
}

// linearNeighbors is the oracle: the plain ascending Euclidean scan.
func linearNeighbors(points [][]float64, o int, eps float64) []int {
	var out []int
	for i, p := range points {
		if dist.Euclidean(points[o], p) <= eps {
			out = append(out, i)
		}
	}
	return out
}

// precomputeEqualsLinear fails unless every list PrecomputeGridNeighbors
// serves, with one worker and with three, equals the linear scan's: the
// per-cell precompute DBSCAN and SUBCLU run.
func precomputeEqualsLinear(t *testing.T, pts [][]float64, eps float64) {
	t.Helper()
	for _, w := range []int{1, 3} {
		nf := PrecomputeGridNeighbors(nil, pts, eps, w)
		for o := range pts {
			if got, want := nf(o), linearNeighbors(pts, o, eps); !slices.Equal(got, want) {
				t.Fatalf("workers=%d object %d: precomputed %v != linear %v (eps=%g)", w, o, got, want, eps)
			}
		}
	}
}

// TestGridEqualsLinear is the deterministic differential sweep: for a range
// of sizes, dimensionalities and radii, every object's grid neighbor list
// must be identical (same members, same ascending order) to the linear
// scan's, whether queried one at a time or precomputed.
func TestGridEqualsLinear(t *testing.T) {
	cases := []struct {
		seed   int64
		n, dim int
		eps    float64
		spread float64
	}{
		{1, 50, 1, 0.1, 1},
		{2, 120, 2, 0.15, 1},
		{3, 200, 3, 0.3, 2},
		{4, 80, 4, 0.5, 1},
		{5, 60, 6, 0.9, 1},
		{6, 40, 2, 5, 1},    // eps larger than the spread: everything neighbors
		{7, 30, 2, 1e-6, 1}, // eps tiny: mostly singletons
		{8, 100, 2, 0.25, 100},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d_n=%d_d=%d", tc.seed, tc.n, tc.dim), func(t *testing.T) {
			pts := randomPoints(tc.seed, tc.n, tc.dim, tc.spread)
			g := NewGridIndex(pts, tc.eps)
			if g == nil {
				t.Fatalf("grid declined n=%d dims=%d", tc.n, tc.dim)
			}
			for o := range pts {
				got := g.Neighbors(o)
				want := linearNeighbors(pts, o, tc.eps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("object %d: grid %v != linear %v", o, got, want)
				}
			}
			precomputeEqualsLinear(t, pts, tc.eps)
		})
	}
	// The packed cell key at its limit: boxes whose cell offsets need
	// exactly 64 bits, which the grid serves, and 65, which it declines.
	for _, tc := range []struct {
		extent []float64
		bits   int
	}{
		{[]float64{3e9, 3e9}, 64},
		{[]float64{5e9, 3e9}, 65},
		{[]float64{1500, 1500, 1500, 1500, 800, 800}, 64},
		{[]float64{1500, 1500, 1500, 1500, 1500, 800}, 65},
	} {
		t.Run(fmt.Sprintf("key=%d_d=%d", tc.bits, len(tc.extent)), func(t *testing.T) {
			pts := boxPoints(tc.extent)
			if got := keyWidth(pts, 1); got != tc.bits {
				t.Fatalf("key width %d bits, want %d", got, tc.bits)
			}
			g := NewGridIndex(pts, 1)
			if (g != nil) != (tc.bits <= 64) {
				t.Fatalf("grid built: %v, for a %d-bit key", g != nil, tc.bits)
			}
			if g != nil {
				for o := range pts {
					if got, want := g.Neighbors(o), linearNeighbors(pts, o, 1); !reflect.DeepEqual(got, want) {
						t.Fatalf("object %d: grid %v != linear %v", o, got, want)
					}
				}
			}
			precomputeEqualsLinear(t, pts, 1)
		})
	}
}

// boxPoints draws 30 seeded points in the box [0, extent[j]] per
// dimension, and the box's two corners, which fix the coordinate ranges;
// each point has a twin at most 0.4 closer to the origin in every
// coordinate, within ε = 1 of it in up to six dimensions.
func boxPoints(extent []float64) [][]float64 {
	rng := rand.New(rand.NewSource(int64(len(extent))))
	var pts [][]float64
	for i := 0; i < 32; i++ {
		p := make([]float64, len(extent))
		for j, e := range extent {
			switch i {
			case 0:
			case 1:
				p[j] = e
			default:
				p[j] = rng.Float64() * e
			}
		}
		twin := make([]float64, len(p))
		for j, v := range p {
			twin[j] = max(v-0.4, 0)
		}
		pts = append(pts, p, twin)
	}
	return pts
}

// keyWidth is the number of bits NewGridIndex's packed cell key takes for
// pts at radius eps: per dimension, the bit length of the largest cell
// offset plus two.
func keyWidth(pts [][]float64, eps float64) int {
	width := 0
	for j := range pts[0] {
		lo, hi := pts[0][j], pts[0][j]
		for _, p := range pts {
			lo, hi = min(lo, p[j]), max(hi, p[j])
		}
		width += bits.Len64(uint64((hi-lo)/(eps*(1+1e-9))) + 2)
	}
	return width
}

// TestGridBoundaryDistances pins the exact-eps edge: pairs at distance
// exactly eps must appear in each other's lists, even when they land in
// adjacent cells. The rings put points at distance eps from a center
// along random directions, so their squared distances straddle eps*eps by
// a few ulps: the grid's squared test must draw the line exactly where
// the Euclidean one does.
func TestGridBoundaryDistances(t *testing.T) {
	type input struct {
		pts [][]float64
		eps float64
	}
	inputs := []input{{[][]float64{{0, 0}, {0.5, 0}, {0, 0.5}, {1, 0}, {0.5 + 1e-12, 0.5}}, 0.5}}
	rng := rand.New(rand.NewSource(12))
	for _, eps := range []float64{0.1, 0.3, 0.7, 1.3} {
		for dims := 2; dims <= 3; dims++ {
			pts := [][]float64{make([]float64, dims)}
			for i := 0; i < 60; i++ {
				dir := make([]float64, dims)
				var norm float64
				for j := range dir {
					dir[j] = rng.NormFloat64()
					norm += dir[j] * dir[j]
				}
				for j := range dir {
					dir[j] *= eps / math.Sqrt(norm)
				}
				pts = append(pts, dir)
			}
			inputs = append(inputs, input{pts, eps})
		}
	}
	for i, in := range inputs {
		g := NewGridIndex(in.pts, in.eps)
		if g == nil {
			t.Fatal("grid declined")
		}
		for o := range in.pts {
			got := g.Neighbors(o)
			want := linearNeighbors(in.pts, o, in.eps)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d object %d: grid %v != linear %v", i, o, got, want)
			}
		}
		precomputeEqualsLinear(t, in.pts, in.eps)
	}
}

// TestGridNaNCoordinates pins the grid to the linear scan on NaN
// coordinates, in the first point and elsewhere. A NaN point has no
// neighbors, not even itself, so the grid gives it no cell.
func TestGridNaNCoordinates(t *testing.T) {
	nan := math.NaN()
	for i, pts := range [][][]float64{
		{{0, nan}, {0.1, 0.2}, {0.15, 0.25}, {0.9, 0.9}, {0.12, 0.21}},
		{{nan, 0.5}, {0.1, 0.2}, {0.15, 0.25}, {0.9, 0.9}},
		{{nan}, {0.3}, {0.31}, {5}},
		{{0.1, 0.2}, {nan, 0.2}, {0.15, 0.25}, {0.9, nan}},
	} {
		g := NewGridIndex(pts, 0.2)
		if g == nil {
			t.Fatalf("case %d: grid declined", i)
		}
		for o := range pts {
			if got, want := g.Neighbors(o), linearNeighbors(pts, o, 0.2); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d object %d: grid %v != linear %v", i, o, got, want)
			}
		}
		precomputeEqualsLinear(t, pts, 0.2)
	}
}

// TestGridDeclines checks the fallback gates: high dimensionality and empty
// input must return nil so callers use the linear scan.
func TestGridDeclines(t *testing.T) {
	if g := NewGridIndex(randomPoints(1, 10, maxGridDims+1, 1), 0.5); g != nil {
		t.Error("grid should decline past maxGridDims")
	}
	if g := NewGridIndex(nil, 0.5); g != nil {
		t.Error("grid should decline an empty point set")
	}
	if g := NewGridIndex(randomPoints(1, 10, 2, 1), 0); g != nil {
		t.Error("grid should decline eps<=0")
	}
	// Degenerate range/eps ratio: falls back rather than overflowing.
	pts := [][]float64{{0}, {1e18}}
	if g := NewGridIndex(pts, 1e-9); g != nil {
		t.Error("grid should decline an overflowing cell span")
	}
}

// TestRunNilDistanceEqualsLinear pins the wiring: RunContext with a nil
// distance (grid-indexed Euclidean) must produce byte-identical labels to
// the explicit linear Euclidean scan.
func TestRunNilDistanceEqualsLinear(t *testing.T) {
	pts := randomPoints(9, 300, 3, 1)
	cfg := Config{Eps: 0.2, MinPts: 4}
	linear, err := Run(pts, dist.Euclidean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Run(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(linear.Labels, grid.Labels) {
		t.Error("grid-indexed run diverges from linear run")
	}
}

// TestRegionQueriesReachContextRecorder is the recorder-split regression
// test: RunContext must record dbscan.region_queries on the SAME recorder
// as the expansion-loop counters (the one resolved from ctx), not on the
// process default — a per-run Collector previously lost the region-query
// counts entirely.
func TestRegionQueriesReachContextRecorder(t *testing.T) {
	pts := randomPoints(10, 100, 2, 1)
	cfg := Config{Eps: 0.2, MinPts: 3}
	for _, d := range []dist.Func{nil, dist.Euclidean} {
		col := obs.NewCollector()
		ctx := obs.NewContext(context.Background(), col)
		if _, err := RunContext(ctx, pts, d, cfg); err != nil {
			t.Fatal(err)
		}
		if got := col.Counter("dbscan.region_queries"); got != int64(len(pts)) {
			t.Errorf("d=%v: context collector saw %d region queries, want %d", d == nil, got, len(pts))
		}
		if col.Counter("dbscan.neighborhood_lookups") == 0 {
			t.Errorf("expansion-loop counters missing from the same collector")
		}
	}
}

// FuzzGridEqualsLinear fuzzes the differential property over the point
// geometry: whatever (n, dims, eps, spread, seed) the fuzzer finds, the
// grid index, queried or precomputed, and the linear scan must agree on
// every neighbor list.
func FuzzGridEqualsLinear(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), 0.2, 1.0)
	f.Add(int64(7), uint8(15), uint8(1), 0.01, 3.0)
	f.Add(int64(9), uint8(64), uint8(5), 1.5, 0.5)
	// Packed keys of exactly 64 bits (served) and 65 (declined), in 2-D
	// and 6-D; TestFuzzSeedKeyWidths pins the widths.
	for _, s := range keySeeds {
		f.Add(s.seed, s.n, s.dims, s.eps, s.spread)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, dims uint8, eps, spread float64) {
		nn := int(n)%128 + 1
		dd := int(dims)%maxGridDims + 1
		if !(eps > 1e-12 && eps < 1e6) || !(spread > 1e-6 && spread < 1e6) {
			t.Skip()
		}
		pts := randomPoints(seed, nn, dd, spread)
		// A declined geometry still runs the precompute's linear fallback.
		if g := NewGridIndex(pts, eps); g != nil {
			for o := range pts {
				got := g.Neighbors(o)
				want := linearNeighbors(pts, o, eps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("object %d: grid %v != linear %v (n=%d dims=%d eps=%g)", o, got, want, nn, dd, eps)
				}
			}
		}
		precomputeEqualsLinear(t, pts, eps)
	})
}

// keySeeds are FuzzGridEqualsLinear inputs whose packed cell keys need
// exactly 64 or 65 bits.
var keySeeds = []struct {
	seed        int64
	n, dims     uint8
	eps, spread float64
	bits        int
}{
	{12, 39, 1, 2.5e-5, 1e5, 64}, // 40 points in 2-D, 32 + 32 bits
	{15, 7, 1, 2e-5, 1e5, 65},    // 8 points in 2-D, 32 + 33 bits
	{4, 9, 5, 77, 1e5, 64},       // 10 points in 6-D, 4×11 + 2×10 bits
	{3, 9, 5, 73.3, 1e5, 65},     // 10 points in 6-D, 5×11 + 10 bits
}

// TestFuzzSeedKeyWidths pins the key widths keySeeds claim, and that the
// grid serves the 64-bit ones and declines the others.
func TestFuzzSeedKeyWidths(t *testing.T) {
	for _, s := range keySeeds {
		pts := randomPoints(s.seed, int(s.n)%128+1, int(s.dims)%maxGridDims+1, s.spread)
		if got := keyWidth(pts, s.eps); got != s.bits {
			t.Errorf("seed %d: key width %d bits, want %d", s.seed, got, s.bits)
		}
		if g := NewGridIndex(pts, s.eps); (g != nil) != (s.bits <= 64) {
			t.Errorf("seed %d: grid built: %v, for a %d-bit key", s.seed, g != nil, s.bits)
		}
	}
}

// BenchmarkPrecomputeGrid times the grid precompute behind DBSCAN's nil
// distance and SUBCLU's level 2: the 1-D and 2-D projections of the
// lib-paradigms subspace set (8 dims, a fifth of the objects in each of
// three planted clusters, ε = 0.05) at n = 500 and 2000, and a 4-D set of
// three Gaussian blobs.
func BenchmarkPrecomputeGrid(b *testing.B) {
	type input struct {
		name string
		pts  [][]float64
		eps  float64
	}
	var inputs []input
	for _, n := range []int{500, 2000} {
		ds, _, err := dataset.SubspaceData(12, n, 8, []dataset.SubspaceSpec{
			{Dims: []int{0, 1}, Size: n / 5, Width: 0.08},
			{Dims: []int{3, 4}, Size: n / 5, Width: 0.08},
			{Dims: []int{5, 6, 7}, Size: n / 5, Width: 0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, dims := range [][]int{{0}, {0, 1}} {
			proj := make([][]float64, n)
			for i, p := range ds.Points {
				for _, j := range dims {
					proj[i] = append(proj[i], p[j])
				}
			}
			inputs = append(inputs, input{fmt.Sprintf("lib/n=%d/d=%d", n, len(dims)), proj, 0.05})
		}
	}
	blobs, _ := dataset.GaussianBlobs(4, 2000, [][]float64{{0, 0, 0, 0}, {6, 6, 6, 6}, {0, 6, 0, 6}}, 1)
	inputs = append(inputs, input{"blobs/n=2000/d=4", blobs.Points, 1})
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PrecomputeGridNeighbors(nil, in.pts, in.eps, 0)
			}
		})
	}
}
