package dbscan

import (
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/dist"
)

// The region queries are precomputed concurrently; the expansion loop is
// serial, so the labeling must be exactly identical for any worker count,
// on the linear scan and on the grid (a nil distance).
func TestDBSCANWorkersDeterministic(t *testing.T) {
	ds, _ := dataset.GaussianBlobs(4, 200, [][]float64{{0, 0}, {8, 8}, {0, 8}}, 0.6)
	serial, err := Run(ds.Points, dist.Euclidean, Config{Eps: 1.2, MinPts: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []dist.Func{dist.Euclidean, nil} {
		for _, w := range []int{2, 4, 9} {
			par, err := Run(ds.Points, d, Config{Eps: 1.2, MinPts: 4, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial.Labels {
				if par.Labels[i] != serial.Labels[i] {
					t.Fatalf("grid=%v workers=%d: label %d differs: %d vs %d", d == nil, w, i, par.Labels[i], serial.Labels[i])
				}
			}
		}
	}
}
