// Package metaclust implements meta clustering (Caruana et al. 2006,
// tutorial slide 29): generate many base clusterings by perturbing the
// clustering process (random restarts, random feature weightings, varying
// k), measure pairwise dissimilarity between the solutions (1 - Rand index),
// group the solutions at the meta level with agglomerative clustering, and
// return one representative per meta cluster.
//
// The tutorial's criticism — blind generation yields many near-duplicate
// solutions — is observable in the result: Generated holds every base
// clustering, Representatives the few distinct ones.
//
// The pipeline is exposed in two exported stages — Generate (perturbed base
// solutions) and Group (dissimilarity matrix, agglomerative meta clustering,
// medoid representatives) — so the streaming sliding-window ensemble in
// internal/stream can generate per chunk and group per snapshot while a
// single-chunk stream stays byte-identical to RunContext.
//
// Grouping m solutions of n objects costs O(m²·n) with the default
// dissimilarity: each of the m(m−1)/2 Rand indices is read from contingency
// sums in O(n), not from the n(n−1)/2 object pairs.
package metaclust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"multiclust/internal/core"
	"multiclust/internal/dist"
	"multiclust/internal/hierarchical"
	"multiclust/internal/kmeans"
	"multiclust/internal/metrics"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
)

// Config controls the meta clustering run.
type Config struct {
	K             int     // clusters per base solution
	NumSolutions  int     // base clusterings to generate (default 20)
	MetaClusters  int     // distinct solutions to return (default 3)
	FeatureJitter float64 // stddev of the log-normal feature weights (default 1)
	Seed          int64
	Workers       int                    // parallelism; <=0 resolves via internal/parallel
	Diss          core.DissimilarityFunc // default 1 - Rand index
}

// normalize validates cfg against an n-point dataset and fills defaults.
func (cfg Config) normalize(n int) (Config, error) {
	if n == 0 {
		return cfg, core.ErrEmptyDataset
	}
	if cfg.K <= 0 || cfg.K > n {
		return cfg, fmt.Errorf("metaclust: invalid K=%d", cfg.K)
	}
	if cfg.NumSolutions <= 0 {
		cfg.NumSolutions = 20
	}
	if cfg.MetaClusters <= 0 {
		cfg.MetaClusters = 3
	}
	if cfg.MetaClusters > cfg.NumSolutions {
		return cfg, errors.New("metaclust: MetaClusters exceeds NumSolutions")
	}
	if cfg.FeatureJitter <= 0 {
		cfg.FeatureJitter = 1
	}
	if cfg.Diss == nil {
		cfg.Diss = metrics.RandDissimilarity()
	}
	return cfg, nil
}

// Result of a meta clustering run.
type Result struct {
	Generated       []*core.Clustering // all base solutions
	Weights         [][]float64        // feature weighting used per solution
	MetaLabels      []int              // meta-cluster id per base solution
	Representatives []*core.Clustering // one per meta cluster (medoid by Diss)
	MeanPairwise    float64            // mean pairwise dissimilarity of Generated
}

// BaseSolution is one perturbed base clustering: its labels, the feature
// weighting that produced it, the k-means centers in that weighted space
// (what a streaming consumer needs to extend the solution to rows it was
// not fitted on), and the k-means seed that ran it.
type BaseSolution struct {
	Clustering *core.Clustering
	Weights    []float64
	Centers    [][]float64
	Seed       int64
}

// Run generates and groups base clusterings of points.
func Run(points [][]float64, cfg Config) (*Result, error) {
	return RunContext(context.Background(), points, cfg)
}

// RunContext is Run with cancellation: ctx is threaded into every base
// k-means run (each polls at its own iteration boundary) and checked again
// between the pipeline stages. On interruption the generated solutions are
// still valid clusterings — k-means returns best-so-far — so the meta-level
// grouping completes on them and the result is wrapped in
// core.ErrInterrupted. With a background context the output is
// byte-identical to Run.
func RunContext(ctx context.Context, points [][]float64, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize(len(points))
	if err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "metaclust.run")
	defer endSpan()

	sols, interrupted := Generate(ctx, points, cfg)
	if sols == nil {
		return nil, interrupted
	}
	res := &Result{
		Generated: make([]*core.Clustering, len(sols)),
		Weights:   make([][]float64, len(sols)),
	}
	for i, s := range sols {
		res.Generated[i] = s.Clustering
		res.Weights[i] = s.Weights
	}

	g, err := Group(ctx, res.Generated, cfg.MetaClusters, cfg.Diss, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res.MetaLabels = g.MetaLabels
	res.MeanPairwise = g.MeanPairwise
	for _, idx := range g.Representatives {
		res.Representatives = append(res.Representatives, res.Generated[idx])
	}
	if rec != nil {
		rec.Count("metaclust.representatives", int64(len(res.Representatives)))
		rec.Gauge("metaclust.mean_pairwise", res.MeanPairwise)
	}
	if interrupted != nil {
		return res, fmt.Errorf("metaclust: interrupted: %v: %w", interrupted, core.ErrInterrupted)
	}
	return res, nil
}

// Generate produces cfg.NumSolutions perturbed base solutions of points.
// The RNG draws (each member's feature weights, then its k-means seed)
// happen serially up front in exactly the order a serial loop would make
// them, so the generated ensemble is identical for any worker count; only
// the k-means runs fan out. On a hard failure the returned slice is nil; on
// interruption the slice holds valid best-so-far clusterings and the error
// is the raw cause (RunContext wraps it in core.ErrInterrupted).
func Generate(ctx context.Context, points [][]float64, cfg Config) ([]BaseSolution, error) {
	cfg, err := cfg.normalize(len(points))
	if err != nil {
		return nil, err
	}
	n, d := len(points), len(points[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	rec := obs.From(ctx)
	rec.Count("metaclust.base_solutions", int64(cfg.NumSolutions))

	sols := make([]BaseSolution, cfg.NumSolutions)
	for s := range sols {
		// Zipf-style random feature weighting, the diversity device of the
		// original paper: w_j = exp(jitter * N(0,1)).
		w := make([]float64, d)
		for j := range w {
			w[j] = expNorm(rng, cfg.FeatureJitter)
		}
		sols[s].Weights = w
		sols[s].Seed = rng.Int63()
	}
	workers := parallel.Workers(cfg.Workers)
	innerW := workers / cfg.NumSolutions
	if innerW < 1 {
		innerW = 1
	}
	type genOut struct {
		clustering *core.Clustering
		centers    [][]float64
		err        error
	}
	// Phase span: the base-run fan-out. Each k-means run receives the
	// generate-phase context, so its own span nests under the caller's span
	// in the trace tree.
	outs := func() []genOut {
		gctx, end := obs.SpanCtx(ctx, rec, "metaclust.generate")
		defer end()
		return parallel.Map(cfg.NumSolutions, workers, func(s int) genOut {
			w := sols[s].Weights
			weighted := make([][]float64, n)
			for i, p := range points {
				row := make([]float64, d)
				for j, v := range p {
					row[j] = v * w[j]
				}
				weighted[i] = row
			}
			km, err := kmeans.RunContext(gctx, weighted, kmeans.Config{K: cfg.K, Seed: sols[s].Seed, Workers: innerW})
			if km == nil {
				return genOut{err: err}
			}
			return genOut{clustering: km.Clustering, centers: km.Centers, err: err}
		})
	}()
	var interrupted error
	for s, o := range outs {
		if o.clustering == nil {
			return nil, o.err
		}
		if o.err != nil {
			interrupted = o.err
		}
		sols[s].Clustering = o.clustering
		sols[s].Centers = o.centers
	}
	return sols, interrupted
}

// Grouping is the meta-level structure over a set of base solutions.
type Grouping struct {
	MetaLabels      []int   // meta-cluster id per solution
	Representatives []int   // medoid solution index per meta cluster
	MeanPairwise    float64 // mean pairwise dissimilarity
}

// Group clusters the base solutions themselves: pairwise dissimilarities
// (default 1 − Rand index when dissFn is nil), average-link agglomerative
// grouping into metaClusters groups, and the medoid of each group as its
// representative. The triangular dissimilarity loop is sharded by row and
// the mean accumulated in row order afterwards, so the grouping is
// byte-identical for any worker count. All clusterings must label the same
// objects.
func Group(ctx context.Context, sols []*core.Clustering, metaClusters int, dissFn core.DissimilarityFunc, workers int) (*Grouping, error) {
	m := len(sols)
	if m == 0 {
		return nil, core.ErrEmptyDataset
	}
	if metaClusters <= 0 {
		metaClusters = 3
	}
	if metaClusters > m {
		return nil, errors.New("metaclust: MetaClusters exceeds NumSolutions")
	}
	if dissFn == nil {
		dissFn = metrics.RandDissimilarity()
	}
	workers = parallel.Workers(workers)
	rec := obs.From(ctx)
	_, end := obs.SpanCtx(ctx, rec, "metaclust.group")
	defer end()

	g := &Grouping{}
	diss := make([][]float64, m)
	var sum float64
	var cnt int
	for i := range diss {
		diss[i] = make([]float64, m)
	}
	parallel.Each(m, workers, func(i int) {
		for j := i + 1; j < m; j++ {
			v := dissFn(sols[i], sols[j])
			diss[i][j], diss[j][i] = v, v
		}
	})
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			sum += diss[i][j]
			cnt++
		}
	}
	if cnt > 0 {
		g.MeanPairwise = sum / float64(cnt)
	}

	// Group solutions: average-link agglomerative over the meta distance.
	// Each "point" is a solution index; the distance function looks up the
	// precomputed matrix.
	ids := make([][]float64, m)
	for i := range ids {
		ids[i] = []float64{float64(i)}
	}
	metaDist := dist.Func(func(a, b []float64) float64 { return diss[int(a[0])][int(b[0])] })
	dg, err := hierarchical.Run(ids, metaDist, hierarchical.AverageLink)
	if err != nil {
		return nil, err
	}
	metaC, err := dg.Cut(metaClusters)
	if err != nil {
		return nil, err
	}
	g.MetaLabels = metaC.Labels

	// Representative of each meta cluster: the medoid (min summed Diss to
	// the rest of its group).
	for _, group := range metaC.Clusters() {
		best, bestCost := group[0], -1.0
		for _, i := range group {
			var cost float64
			for _, j := range group {
				cost += diss[i][j]
			}
			if bestCost < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		g.Representatives = append(g.Representatives, best)
	}
	return g, nil
}

// expNorm returns exp(sigma * N(0,1)), clamped to avoid overflow.
func expNorm(rng *rand.Rand, sigma float64) float64 {
	x := rng.NormFloat64() * sigma
	if x > 6 {
		x = 6
	}
	if x < -6 {
		x = -6
	}
	return math.Exp(x)
}
