package multiclust

import (
	"errors"
	"math"
	"testing"
)

// Degenerate inputs every algorithm must survive without panicking: all
// points identical, a constant dimension, and a bare-minimum object count.
func degenerateDatasets() map[string][][]float64 {
	dup := make([][]float64, 12)
	for i := range dup {
		dup[i] = []float64{1, 2, 3}
	}
	constDim := make([][]float64, 12)
	for i := range constDim {
		constDim[i] = []float64{float64(i), 5, float64(i % 3)}
	}
	tiny := [][]float64{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}
	nanRow := make([][]float64, 12)
	for i := range nanRow {
		nanRow[i] = []float64{float64(i), float64(i % 4), 1}
	}
	nanRow[5] = []float64{math.NaN(), math.NaN(), math.NaN()}
	infSpike := make([][]float64, 12)
	for i := range infSpike {
		infSpike[i] = []float64{float64(i), float64(i % 4), 1}
	}
	infSpike[7][1] = math.Inf(1)
	single := [][]float64{{1, 2, 3}}
	return map[string][][]float64{
		"duplicates":  dup,
		"constDim":    constDim,
		"tiny":        tiny,
		"nanRow":      nanRow,
		"infSpike":    infSpike,
		"singlePoint": single,
	}
}

// TestRobustnessTypedRejections pins the gate semantics on the
// contaminated entries of the degenerate matrix: every algorithm family
// rejects them with an error wrapping ErrInvalidInput, never a panic and
// never a silent NaN result.
func TestRobustnessTypedRejections(t *testing.T) {
	all := degenerateDatasets()
	for _, dsName := range []string{"nanRow", "infSpike"} {
		pts := all[dsName]
		given := NewClustering(make([]int, len(pts)))
		t.Run(dsName, func(t *testing.T) {
			calls := map[string]func() error{
				"kmeans":    func() error { _, err := KMeans(pts, KMeansConfig{K: 2, Seed: 1}); return err },
				"dbscan":    func() error { _, err := DBSCAN(pts, DBSCANConfig{Eps: 0.5, MinPts: 2}); return err },
				"em":        func() error { _, err := EM(pts, EMConfig{K: 2, Seed: 1}); return err },
				"spectral":  func() error { _, err := Spectral(pts, SpectralConfig{K: 2, Seed: 1}); return err },
				"hier":      func() error { _, err := Hierarchical(pts, AverageLink); return err },
				"metaclust": func() error { _, err := MetaClustering(pts, MetaClusteringConfig{K: 2, Seed: 1}); return err },
				"coala":     func() error { _, err := Coala(pts, given, CoalaConfig{K: 2}); return err },
				"proclus":   func() error { _, err := Proclus(pts, ProclusConfig{K: 2, L: 2, Seed: 1}); return err },
				"clique":    func() error { _, err := Clique(pts, CliqueConfig{Xi: 4, Tau: 0.2}); return err },
				"coem":      func() error { _, err := CoEM(pts, pts, CoEMConfig{K: 2, Seed: 1}); return err },
				"rpensemble": func() error {
					_, err := RandomProjectionEnsemble(pts, RandomProjectionEnsembleConfig{K: 2, Runs: 2, Seed: 1})
					return err
				},
			}
			for name, call := range calls {
				err := call()
				if err == nil {
					t.Errorf("%s accepted %s", name, dsName)
					continue
				}
				if !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%s on %s: err = %v, want wrap of ErrInvalidInput", name, dsName, err)
				}
			}
		})
	}
	// A single point is valid data: algorithms must either cluster it or
	// fail with a typed configuration error, not panic.
	single := all["singlePoint"]
	if res, err := KMeans(single, KMeansConfig{K: 1, Seed: 1}); err != nil {
		t.Errorf("kmeans on single point: %v", err)
	} else {
		checkClustering(t, "kmeans-single", res.Clustering, 1)
	}
	if _, err := KMeans(single, KMeansConfig{K: 2, Seed: 1}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("kmeans K=2 on single point: err = %v, want ErrInvalidInput", err)
	}
}

// checkClustering asserts a structurally valid result: correct length,
// labels either Noise or within a sane range, no NaN contamination implied.
func checkClustering(t *testing.T, name string, c *Clustering, n int) {
	t.Helper()
	if c == nil {
		t.Fatalf("%s: nil clustering", name)
	}
	if err := c.Validate(n); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, l := range c.Labels {
		if l < Noise || l > n {
			t.Fatalf("%s: label[%d] = %d out of range", name, i, l)
		}
	}
}

func TestRobustnessBaseLearners(t *testing.T) {
	for dsName, pts := range degenerateDatasets() {
		n := len(pts)
		t.Run(dsName, func(t *testing.T) {
			if res, err := KMeans(pts, KMeansConfig{K: 2, Seed: 1}); err == nil {
				checkClustering(t, "kmeans", res.Clustering, n)
				if math.IsNaN(res.SSE) {
					t.Error("kmeans SSE NaN")
				}
			}
			if c, err := DBSCAN(pts, DBSCANConfig{Eps: 0.5, MinPts: 2}); err == nil {
				checkClustering(t, "dbscan", c, n)
			}
			if dg, err := Hierarchical(pts, AverageLink); err == nil {
				if c, err := dg.Cut(2); err == nil {
					checkClustering(t, "hierarchical", c, n)
				}
			}
			if res, err := EM(pts, EMConfig{K: 2, Seed: 1}); err == nil {
				checkClustering(t, "em", res.Clustering, n)
				if math.IsNaN(res.LogLik) {
					t.Error("EM log-likelihood NaN")
				}
			}
			if res, err := Spectral(pts, SpectralConfig{K: 2, Seed: 1}); err == nil {
				checkClustering(t, "spectral", res.Clustering, n)
			}
		})
	}
}

func TestRobustnessAlternativePipelines(t *testing.T) {
	for dsName, pts := range degenerateDatasets() {
		n := len(pts)
		given := make([]int, n)
		for i := range given {
			given[i] = i % 2
		}
		g := NewClustering(given)
		t.Run(dsName, func(t *testing.T) {
			if res, err := Coala(pts, g, CoalaConfig{K: 2}); err == nil {
				checkClustering(t, "coala", res.Clustering, n)
			}
			if res, err := CIB(pts, g, CIBConfig{K: 2, Seed: 1, MaxIter: 20, Restarts: 2}); err == nil {
				checkClustering(t, "cib", res.Clustering, n)
			}
			if res, err := MinCEntropy(pts, []*Clustering{g}, MinCEntropyConfig{K: 2, Seed: 1, MaxIter: 5, Restarts: 1}); err == nil {
				checkClustering(t, "mincentropy", res.Clustering, n)
			}
			if res, err := CondEns(pts, g, CondEnsConfig{K: 2, NumSolutions: 5, Seed: 1}); err == nil {
				checkClustering(t, "condens", res.Clustering, n)
			}
			if res, err := DecKMeans(pts, DecKMeansConfig{Ks: []int{2, 2}, Seed: 1, Restarts: 2, MaxIter: 20}); err == nil {
				for _, c := range res.Clusterings {
					checkClustering(t, "deckmeans", c, n)
				}
				if math.IsNaN(res.Objective) {
					t.Error("deckmeans objective NaN")
				}
			}
			if res, err := CAMI(pts, CAMIConfig{K1: 2, K2: 2, Mu: 2, Seed: 1, Restarts: 2, MaxIter: 20}); err == nil {
				checkClustering(t, "cami1", res.Clustering1, n)
				checkClustering(t, "cami2", res.Clustering2, n)
				if math.IsNaN(res.MutualInfo) {
					t.Error("cami MI NaN")
				}
			}
			// Transformation methods need non-singular scatter; errors are
			// acceptable on degenerate data, panics are not.
			if res, err := MetricFlip(pts, g, KMeansBase(2, 1)); err == nil {
				checkClustering(t, "metricflip", res.Clustering, n)
			}
			if res, err := AlternativeTransform(pts, g, KMeansBase(2, 1)); err == nil {
				checkClustering(t, "alttransform", res.Clustering, n)
			}
			if iters, err := OrthogonalProjections(pts, KMeansBase(2, 1), OrthogonalProjectionsConfig{MaxClusterings: 2}); err == nil {
				for _, it := range iters {
					checkClustering(t, "orthproj", it.Clustering, n)
				}
			}
		})
	}
}

func TestRobustnessSubspace(t *testing.T) {
	for dsName, pts := range degenerateDatasets() {
		t.Run(dsName, func(t *testing.T) {
			if res, err := Clique(pts, CliqueConfig{Xi: 4, Tau: 0.2}); err == nil {
				for _, c := range res.Clusters {
					if c.Size() == 0 || c.Dimensionality() == 0 {
						t.Error("clique produced an empty cluster")
					}
				}
			}
			if res, err := Schism(pts, SchismConfig{Xi: 4, Tau: 0.05}); err == nil {
				_ = res
			}
			if res, err := Subclu(pts, SubcluConfig{Eps: 0.5, MinPts: 2, MaxDim: 2}); err == nil {
				_ = res
			}
			if res, err := Proclus(pts, ProclusConfig{K: 2, L: 2, Seed: 1}); err == nil {
				checkClustering(t, "proclus", res.Assignment, len(pts))
			}
			if res, err := Orclus(pts, OrclusConfig{K: 2, L: 1, Seed: 1}); err == nil {
				checkClustering(t, "orclus", res.Assignment, len(pts))
				if math.IsNaN(res.Energy) {
					t.Error("orclus energy NaN")
				}
			}
			if res, err := DOC(pts, DOCConfig{W: 0.5, Seed: 1, MaxClusters: 2}); err == nil {
				_ = res
			}
			if res, err := MineClus(pts, MineClusConfig{W: 0.5, Seed: 1, MaxClusters: 2}); err == nil {
				_ = res
			}
			if res, err := Predecon(pts, PredeconConfig{Eps: 0.5, MinPts: 2, Delta: 0.1}); err == nil {
				checkClustering(t, "predecon", res.Assignment, len(pts))
			}
			if scores, err := Enclus(pts, EnclusConfig{Xi: 4, MaxEntropy: 16, MaxDim: 2}); err == nil {
				for _, s := range scores {
					if math.IsNaN(s.Entropy) {
						t.Error("enclus entropy NaN")
					}
				}
			}
		})
	}
}

func TestRobustnessMultiView(t *testing.T) {
	for dsName, pts := range degenerateDatasets() {
		n := len(pts)
		t.Run(dsName, func(t *testing.T) {
			if res, err := CoEM(pts, pts, CoEMConfig{K: 2, Seed: 1, MaxIter: 10}); err == nil {
				checkClustering(t, "coem", res.Clustering, n)
			}
			if c, err := MVDBSCAN([][][]float64{pts, pts}, MVDBSCANConfig{
				Eps: []float64{0.5, 0.5}, MinPts: 2, Mode: Union,
			}); err == nil {
				checkClustering(t, "mvdbscan", c, n)
			}
			if c, err := TwoViewSpectral(pts, pts, 2, 1); err == nil {
				checkClustering(t, "twoview", c, n)
			}
			if views, err := MSC(pts, MSCConfig{K: 2, Views: 2, DimsPer: 1, Seed: 1}); err == nil {
				for _, v := range views {
					checkClustering(t, "msc", v.Clustering, n)
				}
			}
			if res, err := RandomProjectionEnsemble(pts, RandomProjectionEnsembleConfig{K: 2, Runs: 3, Seed: 1}); err == nil {
				checkClustering(t, "rpensemble", res.Consensus, n)
			}
		})
	}
}

// TestRobustnessMetricsDegenerate pins metric behaviour on degenerate
// labelings rather than leaving it implementation-defined.
func TestRobustnessMetricsDegenerate(t *testing.T) {
	allNoise := []int{Noise, Noise, Noise}
	plain := []int{0, 1, 2}
	if got := RandIndex(allNoise, plain); got != 1 {
		t.Errorf("Rand with no comparable pairs = %v, want vacuous 1", got)
	}
	if got := NMI(allNoise, plain); got != 1 {
		// Both labelings restricted to comparable objects are empty/trivial.
		t.Errorf("NMI on all-noise = %v", got)
	}
	if got := Purity(plain, allNoise); got != 0 {
		t.Errorf("Purity of all-noise = %v", got)
	}
	pts := [][]float64{{0}, {0}, {0}}
	if got := Silhouette(pts, NewClustering([]int{0, 0, 0})); got != 0 {
		t.Errorf("silhouette of single cluster = %v", got)
	}
	if got := SSE(pts, NewClustering(allNoise)); got != 0 {
		t.Errorf("SSE of all-noise = %v", got)
	}
}
