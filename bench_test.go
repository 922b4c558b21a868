package multiclust_test

// One benchmark per regenerated figure/table of the tutorial (see DESIGN.md
// for the experiment index and EXPERIMENTS.md for paper-vs-measured), plus
// micro-benchmarks of the core algorithms for scalability tables.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"multiclust"
	"multiclust/internal/dist"
	"multiclust/internal/experiments"
	"multiclust/internal/kmeans"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE01ToyAlternatives(b *testing.B)  { benchExperiment(b, "E01") }
func BenchmarkE02CoalaTradeoff(b *testing.B)    { benchExperiment(b, "E02") }
func BenchmarkE03DecKMeans(b *testing.B)        { benchExperiment(b, "E03") }
func BenchmarkE04CAMI(b *testing.B)             { benchExperiment(b, "E04") }
func BenchmarkE05Contingency(b *testing.B)      { benchExperiment(b, "E05") }
func BenchmarkE06MetricFlip(b *testing.B)       { benchExperiment(b, "E06") }
func BenchmarkE07QiDavidson(b *testing.B)       { benchExperiment(b, "E07") }
func BenchmarkE08CuiOrthogonal(b *testing.B)    { benchExperiment(b, "E08") }
func BenchmarkE09Curse(b *testing.B)            { benchExperiment(b, "E09") }
func BenchmarkE10Clique(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11Schism(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12Subclu(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13Redundancy(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14Osclu(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15Asclu(b *testing.B)            { benchExperiment(b, "E15") }
func BenchmarkE16Enclus(b *testing.B)           { benchExperiment(b, "E16") }
func BenchmarkE17MSC(b *testing.B)              { benchExperiment(b, "E17") }
func BenchmarkE18CoEM(b *testing.B)             { benchExperiment(b, "E18") }
func BenchmarkE19MVDBSCAN(b *testing.B)         { benchExperiment(b, "E19") }
func BenchmarkE20Consensus(b *testing.B)        { benchExperiment(b, "E20") }
func BenchmarkE21Meta(b *testing.B)             { benchExperiment(b, "E21") }
func BenchmarkT1Taxonomy(b *testing.B)          { benchExperiment(b, "T1") }
func BenchmarkT2ParadigmSummary(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkA1DecKMeansRestarts(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2CIBRestarts(b *testing.B)       { benchExperiment(b, "A2") }
func BenchmarkA3EnsembleSize(b *testing.B)      { benchExperiment(b, "A3") }
func BenchmarkA4GridResolution(b *testing.B)    { benchExperiment(b, "A4") }
func BenchmarkA5ExchangeableDefs(b *testing.B)  { benchExperiment(b, "A5") }
func BenchmarkA6OrientedVsAxis(b *testing.B)    { benchExperiment(b, "A6") }
func BenchmarkA7UniversesVsMerged(b *testing.B) { benchExperiment(b, "A7") }

// --- scalability micro-benchmarks (runtime-vs-n and runtime-vs-d tables) ---

func blobs(n, d int) [][]float64 {
	centers := make([][]float64, 3)
	for c := range centers {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(((c + j) % 3) * 6)
		}
		centers[c] = row
	}
	ds, _ := multiclust.GaussianBlobs(1, n, centers, 0.5)
	return ds.Points
}

func BenchmarkKMeans(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		pts := blobs(n, 8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := multiclust.KMeans(pts, multiclust.KMeansConfig{K: 3, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	for _, n := range []int{100, 400} {
		pts := blobs(n, 4)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := multiclust.DBSCAN(pts, multiclust.DBSCANConfig{Eps: 1.5, MinPts: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEMFit(b *testing.B) {
	pts := blobs(400, 6)
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.EM(pts, multiclust.EMConfig{K: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectral(b *testing.B) {
	pts := blobs(150, 4)
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.Spectral(pts, multiclust.SpectralConfig{K: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoala(b *testing.B) {
	ds, hor, _ := multiclust.FourBlobToy(1, 25)
	given := multiclust.NewClustering(hor)
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.Coala(ds.Points, given, multiclust.CoalaConfig{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecKMeans(b *testing.B) {
	ds, _, _ := multiclust.FourBlobToy(1, 50)
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.DecKMeans(ds.Points, multiclust.DecKMeansConfig{Ks: []int{2, 2}, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCliqueDims(b *testing.B) {
	for _, d := range []int{6, 10, 14} {
		ds, _, err := multiclust.SubspaceData(1, 300, d, []multiclust.SubspaceSpec{
			{Dims: []int{0, 1}, Size: 90, Width: 0.08},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := multiclust.Clique(ds.Points, multiclust.CliqueConfig{Xi: 10, Tau: 0.12}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubclu runs SUBCLU on a small 200×6 input up to 3-dimensional
// subspaces. The input does reach level 3: 20 of the 41 subspaces it
// examines are 3-dimensional, and they take their neighborhoods from their
// parents' stored lists rather than from a grid. internal/subspace's
// BenchmarkSubcluScale measures the same search on the end-to-end
// workload's shape as n grows.
func BenchmarkSubclu(b *testing.B) {
	ds, _, err := multiclust.SubspaceData(1, 200, 6, []multiclust.SubspaceSpec{
		{Dims: []int{0, 1}, Size: 60, Width: 0.06},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.Subclu(ds.Points, multiclust.SubcluConfig{Eps: 0.05, MinPts: 6, MaxDim: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoEM(b *testing.B) {
	va, vb, _ := multiclust.TwoSourceViews(1, 200, 3, 2, 2, 0.5, 0)
	for i := 0; i < b.N; i++ {
		if _, err := multiclust.CoEM(va.Points, vb.Points, multiclust.CoEMConfig{K: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricsARI(b *testing.B) {
	_, hor, ver := multiclust.FourBlobToy(1, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiclust.AdjustedRand(hor, ver)
	}
}

func BenchmarkMetricsNMI(b *testing.B) {
	_, hor, ver := multiclust.FourBlobToy(1, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiclust.NMI(hor, ver)
	}
}

// --- worker-scaling micro-benchmarks (serial vs parallel hot paths) ---

func BenchmarkPairwiseMatrix(b *testing.B) {
	pts := blobs(800, 16)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.PairwiseMatrixWorkers(pts, dist.Euclidean, w)
			}
		})
	}
}

func BenchmarkKMeansRestarts(b *testing.B) {
	pts := blobs(1000, 8)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kmeans.Run(pts, kmeans.Config{K: 3, Seed: 1, Restarts: 8, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDBSCANWorkers(b *testing.B) {
	pts := blobs(600, 4)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			multiclust.SetWorkers(w)
			defer multiclust.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := multiclust.DBSCAN(pts, multiclust.DBSCANConfig{Eps: 1.5, MinPts: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRandomProjectionEnsembleWorkers(b *testing.B) {
	pts := blobs(300, 10)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := multiclust.RandomProjectionEnsembleConfig{K: 3, Runs: 8, Seed: 1}
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := multiclust.RandomProjectionEnsemble(pts, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
