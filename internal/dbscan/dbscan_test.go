package dbscan

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/dist"
	"multiclust/internal/obs"
)

func TestRunRingAndBlob(t *testing.T) {
	ds, truth := dataset.RingAndBlob(1, 300, 80)
	c, err := Run(ds.Points, dist.Euclidean, Config{Eps: 0.25, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 2 {
		t.Fatalf("K = %d, want 2 (ring + blob)", c.K())
	}
	// Clusters must align with truth for non-noise points.
	agree := 0
	tot := 0
	for i := range truth {
		if c.Labels[i] < 0 {
			continue
		}
		tot++
		if (truth[i] == 0) == (c.Labels[i] == c.Labels[0]) {
			agree++
		}
	}
	if tot == 0 || float64(agree)/float64(tot) < 0.95 {
		t.Errorf("agreement %d/%d", agree, tot)
	}
}

func TestNoiseDetection(t *testing.T) {
	// Two dense pairs far apart plus one isolated point.
	pts := [][]float64{{0, 0}, {0, 0.1}, {0.1, 0}, {10, 10}, {10, 10.1}, {10.1, 10}, {100, 100}}
	c, err := Run(pts, dist.Euclidean, Config{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 2 {
		t.Fatalf("K = %d", c.K())
	}
	if c.Labels[6] != core.Noise {
		t.Errorf("isolated point labelled %d, want Noise", c.Labels[6])
	}
}

func TestBorderAdoption(t *testing.T) {
	// A border point within eps of a core point but itself not core.
	pts := [][]float64{{0}, {0.1}, {0.2}, {0.55}}
	c, err := Run(pts, dist.Euclidean, Config{Eps: 0.4, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels[3] == core.Noise {
		t.Error("border point should be adopted by the cluster")
	}
	if c.K() != 1 {
		t.Errorf("K = %d", c.K())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, dist.Euclidean, Config{Eps: 1, MinPts: 1}); err == nil {
		t.Error("empty data should fail")
	}
	pts := [][]float64{{0}}
	if _, err := Run(pts, dist.Euclidean, Config{Eps: 0, MinPts: 1}); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := Run(pts, dist.Euclidean, Config{Eps: 1, MinPts: 0}); err == nil {
		t.Error("minPts=0 should fail")
	}
	if _, err := RunGeneric(0, nil, 1); err == nil {
		t.Error("RunGeneric n=0 should fail")
	}
	if _, err := RunGeneric(1, func(int) []int { return nil }, 0); err == nil {
		t.Error("RunGeneric minPts=0 should fail")
	}
}

func TestRunGenericCustomNeighborhood(t *testing.T) {
	// Neighbourhood defined by index adjacency, not geometry: a path graph.
	n := 6
	nf := func(o int) []int {
		out := []int{o}
		if o > 0 {
			out = append(out, o-1)
		}
		if o < n-1 {
			out = append(out, o+1)
		}
		return out
	}
	c, err := RunGeneric(n, nf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 1 {
		t.Errorf("path graph should form one cluster, K = %d", c.K())
	}
}

// orderFreePoints draws two seeded 2-D blobs one unit apart, a few points
// on the segment between them, which can lie within ε of both blobs' edges,
// and exact copies of a tenth of the rows, in shuffled order.
func orderFreePoints(seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	for _, cx := range []float64{0, 1} {
		for i := 0; i < 30; i++ {
			pts = append(pts, []float64{cx + 0.15*rng.NormFloat64(), 0.15 * rng.NormFloat64()})
		}
	}
	for i := 0; i < 6; i++ {
		pts = append(pts, []float64{0.3 + 0.4*rng.Float64(), 0.05 * rng.NormFloat64()})
	}
	for i := len(pts) / 10; i > 0; i-- {
		pts = append(pts, slices.Clone(pts[rng.Intn(len(pts))]))
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// sharedBorders counts the objects that are not core under minPts but lie
// in the neighborhoods of core objects of two or more clusters.
func sharedBorders(nbs [][]int, labels []int, minPts int) int {
	shared := 0
	for _, nb := range nbs {
		if len(nb) >= minPts {
			continue
		}
		first := core.Noise
		for _, q := range nb {
			if len(nbs[q]) < minPts {
				continue
			}
			if first == core.Noise {
				first = labels[q]
			} else if labels[q] != first {
				shared++
				break
			}
		}
	}
	return shared
}

// TestRunGenericOrderFree pins that DBSCAN's labels and its lookup, core
// and cluster counters depend on which objects each neighborhood holds,
// not on their order: every list of the linear scan, shuffled per object,
// must give the same labels and counters, at minPts from 1 to above n. The
// seeded sets hold duplicate rows and border objects within ε of core
// objects of two clusters, whose label is the one place an order could
// show; the test fails if no such border object occurred.
func TestRunGenericOrderFree(t *testing.T) {
	counters := []string{"dbscan.neighborhood_lookups", "dbscan.core_objects", "dbscan.clusters"}
	run := func(nbs [][]int, minPts int) ([]int, []int64) {
		col := obs.NewCollector()
		c, err := RunGenericContext(obs.NewContext(context.Background(), col), len(nbs), func(o int) []int { return nbs[o] }, minPts)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, len(counters))
		for i, k := range counters {
			counts[i] = col.Counter(k)
		}
		return c.Labels, counts
	}
	shared := 0
	for seed := int64(1); seed <= 20; seed++ {
		pts := orderFreePoints(seed)
		nbs := make([][]int, len(pts))
		for o := range pts {
			nbs[o] = linearNeighbors(pts, o, 0.25)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, minPts := range []int{1, 2, 3, 5, 8, 13, 21, len(pts), len(pts) + 1} {
			want, wantCounts := run(nbs, minPts)
			shared += sharedBorders(nbs, want, minPts)
			for trial := 0; trial < 5; trial++ {
				shuffled := make([][]int, len(nbs))
				for o, nb := range nbs {
					l := slices.Clone(nb)
					rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
					shuffled[o] = l
				}
				got, gotCounts := run(shuffled, minPts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d minPts %d trial %d: labels %v, ascending lists %v", seed, minPts, trial, got, want)
				}
				if !slices.Equal(gotCounts, wantCounts) {
					t.Fatalf("seed %d minPts %d trial %d: %v = %v, ascending lists %v", seed, minPts, trial, counters, gotCounts, wantCounts)
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no border object lay within ε of two clusters' core objects")
	}
	t.Logf("%d border objects within ε of two clusters' core objects", shared)
}
