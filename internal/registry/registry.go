// Package registry is the one table of runnable algorithms. Each
// descriptor carries the algorithm's CLI and service name, its row in the
// tutorial's taxonomy (internal/taxonomy, slide 116), whether the job
// service admits it, a uniform Run over the facade, and — where one
// exists — a constructor for its incremental learner.
//
// The multiclust CLI's -algo dispatch, the job service's runners and
// streaming factories, and every list of algorithm names are loops over
// this table, so adding or serving an algorithm is a one-row edit and the
// names cannot drift apart.
package registry

import (
	"context"
	"fmt"
	"slices"

	"multiclust"
)

// Algorithm is one runnable algorithm.
type Algorithm struct {
	// Name is the CLI -algo and service "algo" name.
	Name string
	// Taxonomy names the algorithm's taxonomy.Registry() row; "" for the
	// base learners, which the tutorial's table does not classify.
	Taxonomy string
	// Served reports whether the job service admits it as a batch job.
	Served bool
	// Given reports whether Run reads Params.Given.
	Given bool
	// Run clusters Params.Points through the facade, via its ...Context
	// variant where one exists. An interrupted run returns its
	// best-so-far result alongside the error wrapping ErrInterrupted. Nil
	// for algorithms with only an incremental learner.
	Run func(ctx context.Context, p Params) (*Result, error)
	// Stream builds the incremental learner; nil when there is none.
	// Params.Points is ignored — rows arrive through Learner.Push.
	Stream func(p Params) (Learner, error)
}

// Params is the union of the knobs the algorithms read; each reads its
// own subset, and zero values defer to the algorithm defaults.
type Params struct {
	Points [][]float64
	// Given is the known clustering an alternative is sought to
	// (algorithms with Given set).
	Given        *multiclust.Clustering
	K            int
	Seed         int64
	Eps          float64
	MinPts       int
	Xi           int     // grid intervals per dimension
	Tau          float64 // grid density threshold
	Restarts     int
	MaxIter      int
	NumSolutions int // meta clustering: base solutions (per chunk when streaming)
	MetaClusters int
	Window       int // streaming meta: chunks retained in the window
}

// Result is the one result shape of every Run and every learner
// snapshot.
type Result struct {
	// Partitions are the flat clusterings found, in report order.
	Partitions []*multiclust.Clustering
	// Solutions marks Partitions as a set of alternative solutions
	// rather than one partition; the service then lists every one.
	Solutions bool
	// K is the model's cluster count where Partitions under-report it (a
	// streaming k-means whose latest chunk missed some centers); 0
	// defers to the first partition. Read it through Clusters.
	K int
	// Subspace holds the clusters of the subspace miners: never nil for
	// them, empty when none was found.
	Subspace multiclust.SubspaceClustering
	// Ranking scores subspaces best first (ENCLUS, RIS).
	Ranking []Ranked
	// Stats are the named scalar summaries. For served algorithms they
	// are exactly the service's wire stats.
	Stats map[string]float64
}

// Ranked is one scored subspace of a ranking.
type Ranked struct {
	Dims   []int
	Scores map[string]float64
}

// Clusters reports the model's cluster count: K when set, else the first
// partition's, else 0.
func (r *Result) Clusters() int {
	if r.K > 0 || len(r.Partitions) == 0 {
		return r.K
	}
	return r.Partitions[0].K()
}

// Learner is an incremental learner fed chunk by chunk. Push folds one
// chunk in and Snapshot materializes the current state; both honour ctx
// at chunk boundaries with best-so-far ErrInterrupted semantics. A
// Learner is not safe for concurrent use.
type Learner interface {
	Push(ctx context.Context, rows [][]float64) error
	Snapshot(ctx context.Context) (*Result, error)
}

// All returns the table in its declaration order.
func All() []Algorithm { return slices.Clone(algorithms) }

// Lookup returns the algorithm with the given name.
func Lookup(name string) (Algorithm, bool) {
	for _, a := range algorithms {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

type stats = map[string]float64

// wrap maps a facade result onto Result. The error travels along: an
// interrupted run returns its best-so-far result with ErrInterrupted.
func wrap[T any](res *T, err error, result func(*T) *Result) (*Result, error) {
	if res == nil {
		return nil, err
	}
	return result(res), err
}

// one is the result of a single-partition algorithm; nil when the
// facade returned no clustering.
func one(c *multiclust.Clustering, s stats) *Result {
	if c == nil {
		return nil
	}
	return &Result{Partitions: []*multiclust.Clustering{c}, Stats: s}
}

// set is the result of an algorithm returning alternative solutions.
func set(cs []*multiclust.Clustering, s stats) *Result {
	return &Result{Partitions: cs, Solutions: true, Stats: s}
}

// mined is the result of a subspace miner.
func mined(m multiclust.SubspaceClustering, s stats) *Result {
	if m == nil {
		m = multiclust.SubspaceClustering{}
	}
	return &Result{Subspace: m, Stats: s}
}

// unit rescales points into [0,1]^d, the domain of the grid- and
// density-based subspace miners.
func unit(points [][]float64) [][]float64 {
	return multiclust.NewDataset(points).Normalize().Points
}

// learner adapts one of the facade's streaming learners to Learner.
type learner[S any] struct {
	push     func(context.Context, [][]float64) error
	snapshot func(context.Context) (*S, error)
	result   func(*S) *Result
}

func (l learner[S]) Push(ctx context.Context, rows [][]float64) error { return l.push(ctx, rows) }

func (l learner[S]) Snapshot(ctx context.Context) (*Result, error) {
	s, err := l.snapshot(ctx)
	return wrap(s, err, l.result)
}

// algorithms is the table. Base learners first, then the tutorial's
// paradigms in taxonomy order.
var algorithms = []Algorithm{
	{Name: "kmeans", Served: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.KMeansContext(ctx, p.Points, multiclust.KMeansConfig{K: p.K, Seed: p.Seed, Restarts: p.Restarts, MaxIter: p.MaxIter})
			return wrap(res, err, func(r *multiclust.KMeansResult) *Result {
				return one(r.Clustering, stats{"sse": r.SSE, "iterations": float64(r.Iterations)})
			})
		},
		Stream: func(p Params) (Learner, error) {
			m, err := multiclust.NewStreamKMeans(multiclust.StreamKMeansConfig{K: p.K, Seed: p.Seed, MaxIter: p.MaxIter, Restarts: p.Restarts})
			if err != nil {
				return nil, err
			}
			return learner[multiclust.StreamKMeansSnapshot]{m.PushContext, m.SnapshotContext, func(s *multiclust.StreamKMeansSnapshot) *Result {
				r := one(multiclust.NewClustering(s.LastLabels), stats{
					"sse": s.LastSSE, "rows_seen": float64(s.RowsSeen), "chunks": float64(s.Chunks), "reseeds": float64(s.Reseeds),
				})
				r.K = len(s.Centers)
				return r
			}}, nil
		},
	},
	{Name: "dbscan", Served: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			// Deterministic without a seed: a reseed could not change its
			// outcome, so none is tried.
			c, err := multiclust.DBSCANContext(ctx, p.Points, multiclust.DBSCANConfig{Eps: p.Eps, MinPts: p.MinPts})
			return one(c, nil), err
		},
	},
	{Name: "em", Served: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.EMContext(ctx, p.Points, multiclust.EMConfig{K: p.K, Seed: p.Seed, MaxIter: p.MaxIter})
			return wrap(res, err, func(r *multiclust.EMResult) *Result {
				return one(r.Clustering, stats{"loglik": r.LogLik, "iterations": float64(r.Iterations)})
			})
		},
	},
	{Name: "spectral", Served: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.SpectralContext(ctx, p.Points, multiclust.SpectralConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.SpectralResult) *Result {
				return one(r.Clustering, stats{"sigma": r.Sigma})
			})
		},
	},

	// Original data space.
	{Name: "meta", Taxonomy: "MetaClustering", Served: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.MetaClusteringContext(ctx, p.Points, multiclust.MetaClusteringConfig{
				K: p.K, Seed: p.Seed, NumSolutions: p.NumSolutions, MetaClusters: p.MetaClusters,
			})
			return wrap(res, err, func(r *multiclust.MetaClusteringResult) *Result {
				return set(r.Representatives, stats{"mean_pairwise": r.MeanPairwise, "generated": float64(len(r.Generated))})
			})
		},
		Stream: func(p Params) (Learner, error) {
			e, err := multiclust.NewStreamEnsemble(multiclust.StreamEnsembleConfig{
				K: p.K, PerChunk: p.NumSolutions, MetaClusters: p.MetaClusters, Window: p.Window, Seed: p.Seed,
			})
			if err != nil {
				return nil, err
			}
			return learner[multiclust.StreamEnsembleSnapshot]{e.PushContext, e.SnapshotContext, func(s *multiclust.StreamEnsembleSnapshot) *Result {
				return set(s.Representatives, stats{
					"mean_pairwise": s.MeanPairwise, "window_chunks": float64(s.WindowChunks), "window_rows": float64(s.WindowRows),
					"evicted": float64(s.Evicted), "rows_seen": float64(s.RowsSeen),
				})
			}}, nil
		},
	},
	{Name: "coala", Taxonomy: "COALA", Given: true,
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.CoalaContext(ctx, p.Points, p.Given, multiclust.CoalaConfig{K: p.K})
			return wrap(res, err, func(r *multiclust.CoalaResult) *Result {
				return one(r.Clustering, stats{"quality_merges": float64(r.QualityMerges), "dissimilarity_merges": float64(r.DissimilarityMerges)})
			})
		},
	},
	{Name: "cib", Taxonomy: "CIB", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.CIB(p.Points, p.Given, multiclust.CIBConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.CIBResult) *Result { return one(r.Clustering, nil) })
		},
	},
	{Name: "mincentropy", Taxonomy: "MinCEntropy", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.MinCEntropy(p.Points, []*multiclust.Clustering{p.Given}, multiclust.MinCEntropyConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.MinCEntropyResult) *Result { return one(r.Clustering, nil) })
		},
	},
	{Name: "condens", Taxonomy: "CondEns", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.CondEns(p.Points, p.Given, multiclust.CondEnsConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.CondEnsResult) *Result { return one(r.Clustering, nil) })
		},
	},
	{Name: "flexible", Taxonomy: "Flexible", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Flexible(p.Points, []*multiclust.Clustering{p.Given},
				multiclust.SilhouetteQuality(), multiclust.RandDissimilarity(), multiclust.FlexibleConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.FlexibleResult) *Result {
				return one(r.Clustering, stats{"objective": r.Objective, "quality": r.Quality, "dissimilarity": r.Dissimilarity})
			})
		},
	},
	{Name: "deckmeans", Taxonomy: "DecorrelatedKMeans",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.DecKMeans(p.Points, multiclust.DecKMeansConfig{Ks: []int{p.K, p.K}, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.DecKMeansResult) *Result {
				return set(r.Clusterings, stats{"nmi": multiclust.NMI(r.Clusterings[0].Labels, r.Clusterings[1].Labels)})
			})
		},
	},
	{Name: "cami", Taxonomy: "CAMI",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.CAMI(p.Points, multiclust.CAMIConfig{K1: p.K, K2: p.K, Mu: 5, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.CAMIResult) *Result {
				return set([]*multiclust.Clustering{r.Clustering1, r.Clustering2}, stats{"soft_mi": r.MutualInfo})
			})
		},
	},
	{Name: "contingency", Taxonomy: "ContingencyUniformity",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Contingency(p.Points, multiclust.ContingencyConfig{K1: p.K, K2: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.ContingencyResult) *Result {
				return set([]*multiclust.Clustering{r.Clustering1, r.Clustering2}, stats{"uniformity": r.Uniformity})
			})
		},
	},

	// Orthogonal space transformations.
	{Name: "metricflip", Taxonomy: "MetricFlip", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.MetricFlip(p.Points, p.Given, multiclust.KMeansBase(p.K, p.Seed))
			return wrap(res, err, func(r *multiclust.MetricFlipResult) *Result { return one(r.Clustering, nil) })
		},
	},
	{Name: "alttransform", Taxonomy: "AlternativeTransform", Given: true,
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.AlternativeTransform(p.Points, p.Given, multiclust.KMeansBase(p.K, p.Seed))
			return wrap(res, err, func(r *multiclust.AlternativeTransformResult) *Result {
				return one(r.Clustering, nil)
			})
		},
	},
	{Name: "orthproj", Taxonomy: "OrthogonalProjections",
		Run: func(_ context.Context, p Params) (*Result, error) {
			rounds, err := multiclust.OrthogonalProjections(p.Points, multiclust.KMeansBase(p.K, p.Seed), multiclust.OrthogonalProjectionsConfig{})
			if err != nil {
				return nil, err
			}
			r := set(nil, stats{})
			for i, it := range rounds {
				r.Partitions = append(r.Partitions, it.Clustering)
				r.Stats[fmt.Sprintf("residual_var_%d", i+1)] = it.ResidualVariance
			}
			return r, nil
		},
	},

	// Subspace projections.
	{Name: "clique", Taxonomy: "CLIQUE",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Clique(unit(p.Points), multiclust.CliqueConfig{Xi: p.Xi, Tau: p.Tau})
			return wrap(res, err, func(r *multiclust.CliqueResult) *Result {
				return mined(r.Clusters, stats{
					"candidates_counted": float64(r.Stats.CandidatesGenerated), "candidates_pruned": float64(r.Stats.CandidatesPruned),
				})
			})
		},
	},
	{Name: "schism", Taxonomy: "SCHISM",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Schism(unit(p.Points), multiclust.SchismConfig{Xi: p.Xi, Tau: p.Tau})
			return wrap(res, err, func(r *multiclust.SchismResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "subclu", Taxonomy: "SUBCLU",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.SubcluContext(ctx, unit(p.Points), multiclust.SubcluConfig{Eps: p.Eps, MinPts: p.MinPts})
			return wrap(res, err, func(r *multiclust.SubcluResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "fires", Taxonomy: "FIRES",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Fires(unit(p.Points), multiclust.FiresConfig{Eps: p.Eps, MinPts: p.MinPts})
			return wrap(res, err, func(r *multiclust.FiresResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "dusc", Taxonomy: "DUSC",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.DuscContext(ctx, unit(p.Points), multiclust.DuscConfig{Eps: p.Eps, MaxDim: 3})
			return wrap(res, err, func(r *multiclust.SubcluResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "proclus", Taxonomy: "PROCLUS",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.ProclusContext(ctx, p.Points, multiclust.ProclusConfig{K: p.K, L: 2, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.ProclusResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "orclus", Taxonomy: "ORCLUS",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.OrclusContext(ctx, p.Points, multiclust.OrclusConfig{K: p.K, L: 2, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.OrclusResult) *Result {
				return one(r.Assignment, stats{"projected_energy": r.Energy})
			})
		},
	},
	{Name: "predecon", Taxonomy: "PreDeCon",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.Predecon(p.Points, multiclust.PredeconConfig{Eps: p.Eps, MinPts: p.MinPts, Delta: p.Eps * p.Eps / 4})
			return wrap(res, err, func(r *multiclust.PredeconResult) *Result {
				out := mined(r.Clusters, nil)
				out.Partitions = []*multiclust.Clustering{r.Assignment}
				return out
			})
		},
	},
	{Name: "doc", Taxonomy: "DOC",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.DOCContext(ctx, unit(p.Points), multiclust.DOCConfig{W: p.Eps, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.DOCResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "mineclus", Taxonomy: "MineClus",
		Run: func(ctx context.Context, p Params) (*Result, error) {
			res, err := multiclust.MineClusContext(ctx, unit(p.Points), multiclust.MineClusConfig{W: p.Eps, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.MineClusResult) *Result { return mined(r.Clusters, nil) })
		},
	},
	{Name: "enclus", Taxonomy: "ENCLUS",
		Run: func(_ context.Context, p Params) (*Result, error) {
			scores, err := multiclust.Enclus(unit(p.Points), multiclust.EnclusConfig{Xi: p.Xi, MaxEntropy: 16})
			if err != nil {
				return nil, err
			}
			r := &Result{Ranking: make([]Ranked, len(scores))}
			for i, s := range scores {
				r.Ranking[i] = Ranked{Dims: s.Dims, Scores: stats{"entropy": s.Entropy, "interest": s.Interest}}
			}
			return r, nil
		},
	},
	{Name: "ris", Taxonomy: "RIS",
		Run: func(_ context.Context, p Params) (*Result, error) {
			scores, err := multiclust.RIS(unit(p.Points), multiclust.RISConfig{Eps: p.Eps, MinPts: p.MinPts, TopK: 15})
			if err != nil {
				return nil, err
			}
			r := &Result{Ranking: make([]Ranked, len(scores))}
			for i, s := range scores {
				r.Ranking[i] = Ranked{Dims: s.Dims, Scores: stats{"core": float64(s.CoreObjects), "quality": s.Quality}}
			}
			return r, nil
		},
	},

	// Multiple given views/sources.
	{Name: "coem", Taxonomy: "CoEM",
		Stream: func(p Params) (Learner, error) {
			// The two views are the column split at d/2.
			c, err := multiclust.NewStreamCoEM(multiclust.StreamCoEMConfig{K: p.K, Seed: p.Seed, MaxIter: p.MaxIter})
			if err != nil {
				return nil, err
			}
			return learner[multiclust.StreamCoEMSnapshot]{c.PushContext, c.SnapshotContext, func(s *multiclust.StreamCoEMSnapshot) *Result {
				return one(s.Clustering, stats{
					"agreement": s.Agreement, "loglik_a": s.LogLikA, "loglik_b": s.LogLikB,
					"rows_seen": float64(s.RowsSeen), "chunks": float64(s.Chunks),
				})
			}}, nil
		},
	},
	{Name: "universes", Taxonomy: "ParallelUniverses",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.ParallelUniverses([][][]float64{p.Points, p.Points}, multiclust.UniversesConfig{K: p.K, Seed: p.Seed})
			return wrap(res, err, func(r *multiclust.UniversesResult) *Result { return set(r.Clusterings, nil) })
		},
	},
	{Name: "distdbscan", Taxonomy: "DistributedDBSCAN",
		Run: func(_ context.Context, p Params) (*Result, error) {
			res, err := multiclust.DistributedDBSCAN(p.Points, multiclust.DistributedDBSCANConfig{Eps: p.Eps, MinPts: p.MinPts})
			return wrap(res, err, func(r *multiclust.DistributedDBSCANResult) *Result {
				return one(r.Clustering, stats{"representatives_shipped": float64(len(r.Representatives)), "local_clusters": float64(r.LocalClusters)})
			})
		},
	},
}
