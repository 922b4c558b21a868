// Package em implements expectation–maximization for Gaussian mixture models
// with diagonal covariances. It is the generative base for CAMI (Dang &
// Bailey 2010a), co-EM (Bickel & Scheffer 2004), and the random-projection
// consensus ensemble (Fern & Brodley 2003).
package em

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"multiclust/internal/core"
	"multiclust/internal/kmeans"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
	"multiclust/internal/stats"
)

// Model is a k-component diagonal-covariance Gaussian mixture.
type Model struct {
	Pi    []float64   // component weights, sum to 1
	Means [][]float64 // k × d
	Vars  [][]float64 // k × d diagonal variances
}

// Config controls an EM fit.
type Config struct {
	K       int
	MaxIter int     // default 200
	Tol     float64 // default 1e-6 relative log-likelihood change
	Seed    int64
	MinVar  float64 // variance floor, default 1e-6
}

// Result of an EM fit.
type Result struct {
	Model      *Model
	Posterior  [][]float64 // n × k responsibilities
	LogLik     float64
	Iterations int
	Clustering *core.Clustering // hard assignment by max posterior
}

func (cfg *Config) defaults() {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	if cfg.MinVar <= 0 {
		cfg.MinVar = 1e-6
	}
}

// Fit runs EM from a k-means initialization.
func Fit(points [][]float64, cfg Config) (*Result, error) {
	return FitContext(context.Background(), points, cfg)
}

// FitContext is Fit with cancellation: the EM loop polls ctx after every
// E+M iteration and, when the context is done, returns the current (valid)
// model and posteriors wrapped in core.ErrInterrupted. With a background
// context the output is byte-identical to Fit.
func FitContext(ctx context.Context, points [][]float64, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	if cfg.K <= 0 || cfg.K > n {
		return nil, fmt.Errorf("em: invalid K=%d for n=%d: %w", cfg.K, n, core.ErrInvalidInput)
	}
	cfg.defaults()
	m := initFromKMeans(points, cfg)
	return FitFromContext(ctx, points, m, cfg)
}

// FitFrom runs EM from an explicit starting model; co-EM uses this to hand
// one view's parameters to the other view.
func FitFrom(points [][]float64, m *Model, cfg Config) (*Result, error) {
	return FitFromContext(context.Background(), points, m, cfg)
}

// FitFromContext is FitFrom with iteration-boundary cancellation; see
// FitContext.
func FitFromContext(ctx context.Context, points [][]float64, m *Model, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, core.ErrEmptyDataset
	}
	cfg.defaults()
	k := len(m.Pi)
	post := make([][]float64, n)
	for i := range post {
		post[i] = make([]float64, k)
	}
	rec := obs.From(ctx)
	ctx, endSpan := obs.SpanCtx(ctx, rec, "em.fit")
	defer endSpan()
	prev := math.Inf(-1)
	var ll float64
	var interrupted error
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// One worker: the job engine already runs served em jobs side by
		// side, and the random-projection ensemble calls Fit from inside
		// its own fan-out, so a second fan-out here would only contend
		// for the same cores.
		ll = EStep(points, m, post, cfg.MinVar, 1)
		MStep(points, post, m, cfg.MinVar)
		if rec != nil {
			obs.Count(rec, "em.iterations", 1)
			obs.Observe(rec, "em.loglik", iter, ll)
		}
		if math.Abs(ll-prev) <= cfg.Tol*(1+math.Abs(ll)) {
			break
		}
		prev = ll
		// Iteration-boundary cancellation: post was filled by the E-step, so
		// the partial result below is structurally valid.
		if err := ctx.Err(); err != nil {
			interrupted = err
			iter++
			break
		}
	}
	res := &Result{
		Model:      m,
		Posterior:  post,
		LogLik:     ll,
		Iterations: iter,
		Clustering: Harden(post),
	}
	if interrupted != nil {
		return res, fmt.Errorf("em: interrupted: %v: %w", interrupted, core.ErrInterrupted)
	}
	return res, nil
}

// minRowsPerWorker is the fewest rows EStep hands one worker. Below it a
// worker's share costs less than the dispatch: on a 2-vCPU host an E-step
// of 100 rows fanned out over two workers measured 24% slower than on one,
// and of 2000 rows 35% faster.
const minRowsPerWorker = 256

// EStep fills post with responsibilities and returns the log-likelihood.
// The log weights and variance terms are computed once per call
// (stats.DiagMixture), and the row loop is fanned out over
// internal/parallel on up to workers workers, at least minRowsPerWorker
// rows each (workers <= 0 resolves the default count, capped at
// GOMAXPROCS as parallel caps any defaulted count). Each row's
// responsibilities and log-likelihood term go into that row's own slots,
// and the total is summed in row order afterwards, so the result is
// identical for any worker count.
func EStep(points [][]float64, m *Model, post [][]float64, minVar float64, workers int) float64 {
	if workers <= 0 {
		workers = min(parallel.Workers(0), runtime.GOMAXPROCS(0))
	}
	workers = min(workers, max(1, len(points)/minRowsPerWorker))
	k := len(m.Pi)
	mix := stats.NewDiagMixture(m.Pi, m.Means, m.Vars, minVar)
	rowLL := make([]float64, len(points))
	parallel.For(len(points), workers, func(lo, hi int) {
		logp := make([]float64, k)
		for i := lo; i < hi; i++ {
			mix.LogJoint(points[i], logp)
			lse := stats.LogSumExp(logp)
			rowLL[i] = lse
			for c := 0; c < k; c++ {
				post[i][c] = math.Exp(logp[c] - lse)
			}
		}
	})
	var ll float64
	for _, v := range rowLL {
		ll += v
	}
	return ll
}

// MStep re-estimates the model from responsibilities.
func MStep(points [][]float64, post [][]float64, m *Model, minVar float64) {
	n := len(points)
	k := len(m.Pi)
	d := len(points[0])
	for c := 0; c < k; c++ {
		var nc float64
		mean := make([]float64, d)
		for i, x := range points {
			r := post[i][c]
			nc += r
			for j, v := range x {
				mean[j] += r * v
			}
		}
		if nc < 1e-12 {
			// Dead component: keep previous parameters, shrink weight.
			m.Pi[c] = 1e-12
			continue
		}
		for j := range mean {
			mean[j] /= nc
		}
		vars := make([]float64, d)
		for i, x := range points {
			r := post[i][c]
			for j, v := range x {
				diff := v - mean[j]
				vars[j] += r * diff * diff
			}
		}
		for j := range vars {
			vars[j] /= nc
			if vars[j] < minVar {
				vars[j] = minVar
			}
		}
		m.Pi[c] = nc / float64(n)
		m.Means[c] = mean
		m.Vars[c] = vars
	}
	// Renormalize weights (dead components may have broken the sum).
	var s float64
	for _, w := range m.Pi {
		s += w
	}
	for c := range m.Pi {
		m.Pi[c] /= s
	}
}

// Harden converts responsibilities to a hard clustering by max posterior.
func Harden(post [][]float64) *core.Clustering {
	labels := make([]int, len(post))
	for i, row := range post {
		best, bestV := 0, math.Inf(-1)
		for c, v := range row {
			if v > bestV {
				best, bestV = c, v
			}
		}
		labels[i] = best
	}
	return core.NewClustering(labels)
}

// BIC returns the Bayesian information criterion (lower is better):
// -2 ln L + params * ln n, with params = k-1 + k*d (means) + k*d (vars).
func BIC(points [][]float64, m *Model, ll float64) float64 {
	n := float64(len(points))
	k := float64(len(m.Pi))
	d := float64(len(m.Means[0]))
	params := (k - 1) + 2*k*d
	return -2*ll + params*math.Log(n)
}

func initFromKMeans(points [][]float64, cfg Config) *Model {
	res, err := kmeans.Run(points, kmeans.Config{K: cfg.K, Seed: cfg.Seed, Restarts: 3})
	if err != nil {
		// K was validated by the caller; fall back to random init.
		return RandomModel(points, cfg.K, cfg.Seed)
	}
	d := len(points[0])
	m := &Model{
		Pi:    make([]float64, cfg.K),
		Means: res.Centers,
		Vars:  make([][]float64, cfg.K),
	}
	counts := make([]float64, cfg.K)
	for i, x := range points {
		c := res.Clustering.Labels[i]
		counts[c]++
		if m.Vars[c] == nil {
			m.Vars[c] = make([]float64, d)
		}
		for j, v := range x {
			diff := v - res.Centers[c][j]
			m.Vars[c][j] += diff * diff
		}
	}
	for c := 0; c < cfg.K; c++ {
		if m.Vars[c] == nil {
			m.Vars[c] = make([]float64, d)
		}
		for j := range m.Vars[c] {
			if counts[c] > 0 {
				m.Vars[c][j] /= counts[c]
			}
			if m.Vars[c][j] < cfg.MinVar {
				m.Vars[c][j] = cfg.MinVar
			}
		}
		m.Pi[c] = (counts[c] + 1) / (float64(len(points)) + float64(cfg.K))
	}
	return m
}

// RandomModel builds a mixture with means sampled from the data and unit
// variances — a crude but always-valid initialization.
func RandomModel(points [][]float64, k int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	d := len(points[0])
	m := &Model{Pi: make([]float64, k), Means: make([][]float64, k), Vars: make([][]float64, k)}
	for c := 0; c < k; c++ {
		m.Pi[c] = 1 / float64(k)
		m.Means[c] = append([]float64(nil), points[rng.Intn(len(points))]...)
		vars := make([]float64, d)
		for j := range vars {
			vars[j] = 1
		}
		m.Vars[c] = vars
	}
	return m
}

// Clone deep-copies a model.
func (m *Model) Clone() *Model {
	out := &Model{Pi: append([]float64(nil), m.Pi...)}
	out.Means = make([][]float64, len(m.Means))
	out.Vars = make([][]float64, len(m.Vars))
	for i := range m.Means {
		out.Means[i] = append([]float64(nil), m.Means[i]...)
		out.Vars[i] = append([]float64(nil), m.Vars[i]...)
	}
	return out
}

// Validate checks structural consistency of the model.
func (m *Model) Validate() error {
	k := len(m.Pi)
	if k == 0 || len(m.Means) != k || len(m.Vars) != k {
		return errors.New("em: inconsistent model shapes")
	}
	return nil
}
