package multiview

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"multiclust/internal/dataset"
	"multiclust/internal/parallel"
)

// The ensemble runs fan out over the worker pool; consensus, similarity and
// every per-run clustering must be exactly identical for any worker count.
func TestRandomProjectionEnsembleWorkersDeterministic(t *testing.T) {
	ds, _, _ := dataset.MultiViewGaussians(3, 90, []dataset.ViewSpec{
		{Dims: 2, K: 3, Sep: 4, Sigma: 0.4},
		{Dims: 2, K: 2, Sep: 4, Sigma: 0.4},
	})
	cfg := RandomProjectionEnsembleConfig{K: 3, Runs: 8, TargetDim: 2, Seed: 7}
	cfg.Workers = 1
	serial, err := RandomProjectionEnsemble(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		cfg.Workers = w
		par, err := RandomProjectionEnsemble(ds.Points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Consensus.Labels {
			if par.Consensus.Labels[i] != serial.Consensus.Labels[i] {
				t.Fatalf("workers=%d: consensus label %d differs", w, i)
			}
		}
		for i := range serial.Similarity.Data {
			if par.Similarity.Data[i] != serial.Similarity.Data[i] {
				t.Fatalf("workers=%d: similarity cell %d differs", w, i)
			}
		}
		for r := range serial.Runs {
			for i := range serial.Runs[r].Labels {
				if par.Runs[r].Labels[i] != serial.Runs[r].Labels[i] {
					t.Fatalf("workers=%d: run %d label %d differs", w, r, i)
				}
			}
		}
	}
}

// Every co-EM E-step fans its rows out over the default worker count;
// posteriors, the per-round history and the consensus labels must be
// bit-identical for any count. GOMAXPROCS is raised to the count for the
// run, and the views hold 8 × 256 rows (an E-step gives a worker at least
// 256), so a defaulted fan-out really splits that many ways.
func TestCoEMWorkersDeterministic(t *testing.T) {
	a, b, _ := dataset.TwoSourceViews(4, 2048, 3, 4, 4, 0.8, 0.1)
	cfg := CoEMConfig{K: 3, Seed: 4}
	defer parallel.SetDefault(parallel.Default())
	var first *CoEMResult
	for _, w := range []int{1, 2, 4, 8} {
		parallel.SetDefault(w)
		procs := runtime.GOMAXPROCS(max(w, runtime.GOMAXPROCS(0)))
		got, err := CoEM(a.Points, b.Points, cfg)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		if !slices.Equal(got.Clustering.Labels, first.Clustering.Labels) {
			t.Fatalf("workers=%d: consensus labels differ", w)
		}
		if len(got.History) != len(first.History) {
			t.Fatalf("workers=%d: %d rounds, %d at 1 worker", w, len(got.History), len(first.History))
		}
		for r, h := range got.History {
			f := first.History[r]
			if !sameBits(h.LogLikA, f.LogLikA) || !sameBits(h.LogLikB, f.LogLikB) || !sameBits(h.Agreement, f.Agreement) {
				t.Fatalf("workers=%d: round %d is %+v, at 1 worker %+v", w, r, h, f)
			}
		}
		for _, p := range [][2][][]float64{{got.PosteriorA, first.PosteriorA}, {got.PosteriorB, first.PosteriorB}} {
			for i := range p[0] {
				for c := range p[0][i] {
					if !sameBits(p[0][i][c], p[1][i][c]) {
						t.Fatalf("workers=%d: posterior[%d][%d] = %v, at 1 worker %v", w, i, c, p[0][i][c], p[1][i][c])
					}
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
