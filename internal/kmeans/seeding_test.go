package kmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
)

// plusPlusSeedsRef is the O(n·k²) k-means++ seeding plusPlusSeeds replaced:
// for every new center it rescans each point against all chosen centers.
// It is the oracle TestPlusPlusSeedsMatchesReference pins the incremental
// seeding against.
func plusPlusSeedsRef(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if dd := dist.SqEuclidean(p, c); dd < best {
					best = dd
				}
			}
			d2[i] = best
			total += best
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			for i, w := range d2 {
				cum += w
				if cum >= target {
					idx = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), points[idx]...))
	}
	return centers
}

// recomputeCentersRef is the center update with one accumulator slice per
// center that recomputeCenters replaced; the oracle of
// TestRecomputeCentersMatchesReference.
func recomputeCentersRef(points [][]float64, labels []int, k, d int, centers [][]float64, rec *obs.Collector) [][]float64 {
	counts := make([]int, k)
	next := make([][]float64, k)
	for c := range next {
		next[c] = make([]float64, d)
	}
	for i, p := range points {
		c := labels[i]
		counts[c]++
		for j, v := range p {
			next[c][j] += v
		}
	}
	var used []bool
	for c := range next {
		if counts[c] == 0 {
			rec.Count("kmeans.reseeds", 1)
			if used == nil {
				used = make([]bool, len(points))
			}
			far, farD := -1, -1.0
			for i, p := range points {
				if used[i] {
					continue
				}
				if dd := dist.SqEuclidean(p, centers[labels[i]]); dd > farD {
					far, farD = i, dd
				}
			}
			if far < 0 {
				far = 0 // more empty clusters than points; degenerate input
			}
			used[far] = true
			copy(next[c], points[far])
			continue
		}
		for j := range next[c] {
			next[c][j] /= float64(counts[c])
		}
	}
	return next
}

// serviceBlobs is a dataset of the served k-means job's shape: n rows of
// d = 8 around k = 8 axis-aligned blob centers 6 apart, unit spread.
func serviceBlobs(seed int64, n int) [][]float64 {
	centers := make([][]float64, 8)
	for c := range centers {
		centers[c] = make([]float64, 8)
		centers[c][c] = 6
	}
	ds, _ := dataset.GaussianBlobs(seed, n, centers, 1)
	return ds.Points
}

type seedingCase struct {
	name   string
	points [][]float64
	k      int
}

// seedingCases are the inputs both oracles run on: the served job's shape,
// all-duplicate points (every D² total is 0), k = 1, k = n, a constant
// column, and coordinates whose squared distances overflow to +Inf.
func seedingCases() []seedingCase {
	dup := make([][]float64, 50)
	for i := range dup {
		dup[i] = []float64{1, 2, 3}
	}
	constCol := randomBlobPoints(5, 200, 4, 5)
	for _, p := range constCol {
		p[2] = 5
	}
	huge := randomBlobPoints(6, 60, 2, 4)
	for _, p := range huge {
		p[0] *= 1e155
	}
	return []seedingCase{
		{"service-shape", serviceBlobs(1, 8000), 8},
		{"all-duplicates", dup, 4},
		{"k=1", randomBlobPoints(2, 100, 3, 3), 1},
		{"k=n", randomBlobPoints(3, 12, 2, 3), 12},
		{"constant-column", constCol, 5},
		{"overflowing-distances", huge, 4},
	}
}

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d centers, want %d", len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("center %d has %d coordinates, want %d", c, len(got[c]), len(want[c]))
		}
		for j, v := range want[c] {
			if math.Float64bits(got[c][j]) != math.Float64bits(v) {
				t.Fatalf("center %d dim %d: %v, reference %v", c, j, got[c][j], v)
			}
		}
	}
}

// The incremental seeding must pick the reference's centers bit for bit and
// leave the RNG where the reference leaves it.
func TestPlusPlusSeedsMatchesReference(t *testing.T) {
	for _, tc := range seedingCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				refRNG, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := plusPlusSeedsRef(tc.points, tc.k, refRNG)
				got := plusPlusSeeds(context.Background(), tc.points, tc.k, rng, nil)
				requireSameBits(t, got, want)
				if a, b := rng.Int63(), refRNG.Int63(); a != b {
					t.Fatalf("seed %d: RNG diverged after seeding (%d vs %d)", seed, a, b)
				}
			}
		})
	}
}

// nearestLabels assigns every point to its nearest center, lowest index on
// ties.
func nearestLabels(points, centers [][]float64) []int {
	labels := make([]int, len(points))
	for i, p := range points {
		best := math.Inf(1)
		for c, ctr := range centers {
			if dd := dist.SqEuclidean(p, ctr); dd < best {
				labels[i], best = c, dd
			}
		}
	}
	return labels
}

// The flat accumulator must produce the per-center accumulators' means and
// reseeds bit for bit, hand out centers that cannot grow into their
// neighbours, and reseed each empty cluster once, as the reference does.
func TestRecomputeCentersMatchesReference(t *testing.T) {
	type input struct {
		name            string
		points, centers [][]float64
		labels          []int
	}
	var inputs []input
	for _, tc := range seedingCases() {
		centers := plusPlusSeedsRef(tc.points, tc.k, rand.New(rand.NewSource(7)))
		inputs = append(inputs, input{tc.name, tc.points, centers, nearestLabels(tc.points, centers)})
	}
	// Two clusters empty in one pass: only the first k-2 centers receive
	// points, so clusters k-2 and k-1 are reseeded to distinct points.
	svc := serviceBlobs(2, 8000)
	svcCenters := plusPlusSeedsRef(svc, 8, rand.New(rand.NewSource(3)))
	inputs = append(inputs, input{"two-emptied", svc, svcCenters, nearestLabels(svc, svcCenters[:6])})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			k, d := len(in.centers), len(in.points[0])
			refCol, col := obs.NewCollector(), obs.NewCollector()
			want := recomputeCentersRef(in.points, in.labels, k, d, in.centers, refCol)
			got := recomputeCenters(in.points, in.labels, k, d, in.centers, col)
			requireSameBits(t, got, want)
			for c := range got {
				if cap(got[c]) != d {
					t.Fatalf("center %d has capacity %d, want %d", c, cap(got[c]), d)
				}
			}
			empty := k
			seen := make([]bool, k)
			for _, l := range in.labels {
				if !seen[l] {
					seen[l] = true
					empty--
				}
			}
			if a, b := col.Snapshot().Counters["kmeans.reseeds"], refCol.Snapshot().Counters["kmeans.reseeds"]; a != int64(empty) || b != int64(empty) {
				t.Fatalf("kmeans.reseeds %d, reference %d, want one per empty cluster (%d)", a, b, empty)
			}
		})
	}
}

// Seeding computes (k-1)·n distances per restart, counts exactly those in
// kmeans.seed_distance_computations, and times each restart's seeding in a
// kmeans.seed span under kmeans.run.
func TestSeedDistanceComputations(t *testing.T) {
	pts := randomBlobPoints(9, 300, 3, 5)
	for _, restarts := range []int{1, 3} {
		col := obs.NewCollector()
		if _, err := RunContext(obs.NewContext(context.Background(), col), pts, Config{K: 5, Seed: 9, Restarts: restarts, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		snap := col.Snapshot()
		if got, want := snap.Counters["kmeans.seed_distance_computations"], int64(restarts*(5-1)*300); got != want {
			t.Errorf("restarts=%d: kmeans.seed_distance_computations = %d, want %d", restarts, got, want)
		}
		if got := snap.Tree["kmeans.run/kmeans.seed"].Count; got != int64(restarts) {
			t.Errorf("restarts=%d: %d kmeans.seed spans under kmeans.run, want %d", restarts, got, restarts)
		}
	}
}

// With no recorder a restart's seeding allocates what the O(n·k²) seeding
// did: its RNG, its result and its D² slice; the span and the counter cost
// nothing.
func TestPlusPlusSeedsAllocs(t *testing.T) {
	pts := serviceBlobs(4, 2000)
	allocs := testing.AllocsPerRun(20, func() {
		plusPlusSeeds(context.Background(), pts, 8, rand.New(rand.NewSource(4)), nil)
	})
	if allocs != 11 {
		t.Fatalf("seeding k = 8 allocates %v times, want 11", allocs)
	}
}

// BenchmarkPlusPlusSeeds times one restart's seeding at the served k-means
// job's shape (n = 8000, d = 8, k = 8).
func BenchmarkPlusPlusSeeds(b *testing.B) {
	pts := serviceBlobs(1, 8000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plusPlusSeeds(context.Background(), pts, 8, rng, nil)
	}
}

// BenchmarkKMeansFit times a whole fit at the served k-means job's shape
// (n = 8000, d = 8, k = 8, seeds cycling through 0-7) on one worker and on
// the service's two, with no recorder and with the per-job Collector the
// job engine installs.
func BenchmarkKMeansFit(b *testing.B) {
	pts := serviceBlobs(1, 8000)
	for _, name := range []string{"nil", "collector"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ctx := context.Background()
					if name == "collector" {
						ctx = obs.NewContext(ctx, obs.NewCollector())
					}
					if _, err := RunContext(ctx, pts, Config{K: 8, Seed: int64(i % 8), Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
