package dbscan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// runGenericReference is the expansion loop as it stood before the queue
// held each object once: every core object appends its whole neighbor list
// to the queue, and an object is settled when it is dequeued. It is kept as
// the oracle for RunGenericContext's labels and counters.
func runGenericReference(ctx context.Context, n int, neighbors NeighborFunc, minPts int) []int {
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	rec := obs.From(ctx)
	var coreObjects, lookups int64
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		lookups++
		if len(nb) < minPts {
			labels[i] = core.Noise
			continue
		}
		coreObjects++
		labels[i] = clusterID
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			o := queue[qi]
			if labels[o] == core.Noise {
				labels[o] = clusterID
			}
			if labels[o] != unvisited {
				continue
			}
			labels[o] = clusterID
			onb := neighbors(o)
			lookups++
			if len(onb) >= minPts {
				coreObjects++
				queue = append(queue, onb...)
			}
		}
		clusterID++
	}
	obs.Count(rec, "dbscan.neighborhood_lookups", lookups)
	obs.Count(rec, "dbscan.core_objects", coreObjects)
	obs.Count(rec, "dbscan.clusters", int64(clusterID))
	return labels
}

// randomNeighborhoods draws one case for the expansion-loop differential:
// either the ε-neighborhoods of random points (symmetric, self included)
// or arbitrary ascending lists that may omit the object itself, so the
// loop is exercised beyond what a metric can produce.
func randomNeighborhoods(rng *rand.Rand, n int) [][]int {
	nbs := make([][]int, n)
	if rng.Intn(2) == 0 {
		pts := randomPoints(rng.Int63(), n, 1+rng.Intn(3), 1)
		eps := 0.05 + rng.Float64()*0.4
		for o := range nbs {
			nbs[o] = linearNeighbors(pts, o, eps)
		}
		return nbs
	}
	density := rng.Float64() * 0.3
	for o := range nbs {
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				nbs[o] = append(nbs[o], i)
			}
		}
		sort.Ints(nbs[o])
	}
	return nbs
}

// TestRunGenericEqualsReference pins the claim-once queue to the old
// append-every-list loop: identical labels and identical lookup, core and
// cluster counters on 3,000 random cases.
func TestRunGenericEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	counters := []string{"dbscan.neighborhood_lookups", "dbscan.core_objects", "dbscan.clusters"}
	for c := 0; c < 3000; c++ {
		n := 1 + rng.Intn(60)
		nbs := randomNeighborhoods(rng, n)
		nf := func(o int) []int { return nbs[o] }
		minPts := 1 + rng.Intn(6)
		name := fmt.Sprintf("case %d (n=%d minPts=%d)", c, n, minPts)

		refCol, gotCol := obs.NewCollector(), obs.NewCollector()
		want := runGenericReference(obs.NewContext(context.Background(), refCol), n, nf, minPts)
		got, err := RunGenericContext(obs.NewContext(context.Background(), gotCol), n, nf, minPts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Labels, want) {
			t.Fatalf("%s: labels %v, reference %v", name, got.Labels, want)
		}
		for _, k := range counters {
			if g, w := gotCol.Counter(k), refCol.Counter(k); g != w {
				t.Fatalf("%s: %s = %d, reference %d", name, k, g, w)
			}
		}
	}
}
