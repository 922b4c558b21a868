// Package multiclust is a library for discovering multiple clustering
// solutions: groupings of the same objects in different views of the data.
//
// It implements the full taxonomy of the tutorial "Discovering Multiple
// Clustering Solutions" (Müller, Günnemann, Färber, Seidl; SDM 2011 / ICDE
// 2012): alternative clustering in the original data space, orthogonal
// space transformations, subspace projections, and clustering over multiple
// given views/sources — plus the base learners (k-means, EM, DBSCAN,
// hierarchical, spectral), the comparison measures used as quality Q and
// dissimilarity Diss functions, and deterministic synthetic data generators
// with known multi-view ground truth.
//
// This root package is a facade: every algorithm, metric and generator is
// re-exported here under one import path, with the implementations living
// in the internal packages. Names follow the surveyed papers; each aliased
// symbol's documentation (on the internal type) cites its source.
//
// # Failure semantics
//
// Every exported algorithm validates its input (rectangular, finite, label
// vectors covering the dataset) before running and converts any internal
// panic into an error wrapping ErrPanic, so no call here can crash the
// process or silently compute on NaN-contaminated data. Errors are typed
// sentinels matched with errors.Is: ErrEmptyDataset, ErrInvalidInput,
// ErrShape, ErrInterrupted, ErrDegenerate, ErrPanic. The iterative
// algorithms additionally offer ...Context variants that honour
// cancellation at iteration boundaries, returning the best result so far
// wrapped in ErrInterrupted.
//
// # Quick start
//
//	ds, horizontal, _ := multiclust.FourBlobToy(1, 25)
//	given := multiclust.NewClustering(horizontal)
//	alt, err := multiclust.Coala(ds.Points, given, multiclust.CoalaConfig{K: 2})
//	if err != nil { ... }
//	fmt.Println(multiclust.AdjustedRand(horizontal, alt.Clustering.Labels)) // ~0: a true alternative
package multiclust

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"multiclust/internal/alternative"
	"multiclust/internal/core"
	"multiclust/internal/dataset"
	"multiclust/internal/dbscan"
	"multiclust/internal/dist"
	"multiclust/internal/em"
	"multiclust/internal/hierarchical"
	"multiclust/internal/kmeans"
	"multiclust/internal/metaclust"
	"multiclust/internal/metrics"
	"multiclust/internal/multiview"
	"multiclust/internal/obs"
	"multiclust/internal/orthogonal"
	"multiclust/internal/parallel"
	"multiclust/internal/robust"
	"multiclust/internal/simultaneous"
	"multiclust/internal/spectral"
	"multiclust/internal/stream"
	"multiclust/internal/subspace"
	"multiclust/internal/taxonomy"
)

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

// SetWorkers installs a process-wide default worker count for every parallel
// hot path (pairwise distances, k-means restarts and assignment, DBSCAN
// region queries, spectral affinities, ensemble generation). It takes
// precedence over the MULTICLUST_WORKERS environment variable and the
// GOMAXPROCS fallback but is overridden by a positive Workers field on an
// algorithm's config. n <= 0 restores env/GOMAXPROCS resolution. Results
// are byte-identical for every worker count.
func SetWorkers(n int) { parallel.SetDefault(n) }

// WorkersDefault reports the process-wide default installed with SetWorkers
// (0 when unset).
func WorkersDefault() int { return parallel.Default() }

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

// Recorder receives instrumentation events from the hot paths: counters
// (k-means reassignments, apriori candidates pruned, DBSCAN region
// queries, tasks dispatched by the worker pool), gauges, per-iteration
// observations (SSE per k-means iteration, log-likelihood per EM
// iteration, co-EM agreement per round) and timed spans. When no recorder
// is installed the instrumentation costs one nil check per event — zero
// allocations, pinned by obs_bench_test.go.
type Recorder = obs.Recorder

// Collector is the in-memory Recorder: thread-safe under any worker
// count, with deterministic exports (Snapshot, WriteProm) for a fixed
// seed.
type Collector = obs.Collector

// TraceWriter is the streaming Recorder: one JSON object per event
// (JSONL), for `cmd/multiclust -trace out.jsonl` style capture.
type TraceWriter = obs.TraceWriter

// NewCollector returns an empty in-memory recorder.
func NewCollector() *Collector { return obs.NewCollector() }

// NewTraceWriter returns a recorder streaming JSONL events to w. The
// caller owns buffering and closing of w; check Err() after the run.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// SetRecorder installs a process-wide recorder consulted by every
// instrumented hot path (the observability analogue of SetWorkers). Pass
// nil to disable. A recorder carried by a context (WithRecorder) takes
// precedence for the call it is passed to.
func SetRecorder(r Recorder) { obs.SetDefault(r) }

// RecorderDefault returns the process-wide recorder installed with
// SetRecorder, or nil.
func RecorderDefault() Recorder { return obs.Default() }

// WithRecorder returns a context carrying r; the ...Context algorithm
// variants report into it instead of the process-wide recorder. Hot paths
// without a context parameter (the subspace miners, co-EM) see only the
// process-wide recorder.
func WithRecorder(ctx context.Context, r Recorder) context.Context {
	return obs.NewContext(ctx, r)
}

// TeeRecorders fans events out to every non-nil argument — e.g. a
// Collector for a metrics dump plus a TraceWriter for the event stream.
// It returns nil when no live recorder remains, preserving the disabled
// fast path.
func TeeRecorders(rs ...Recorder) Recorder { return obs.Tee(rs...) }

// SpanID identifies one span instance in the trace tree; 0 means "no
// span". Recorder implementations receive it in StartSpan.
type SpanID = obs.SpanID

// StartSpan opens an application-level span named name as a child of any
// span already carried by ctx, resolving the recorder like the
// ...Context algorithm variants do (context recorder, else the process
// default). It returns the derived context — pass it into library calls
// so their spans nest beneath yours in the trace tree — and the function
// that closes the span. The span also applies runtime/pprof goroutine
// labels ("algo", "phase" from the name around its last dot), so CPU
// profile samples inside it are attributable; the end function restores
// the caller's labels. With no recorder installed it returns ctx
// unchanged and a no-op end at zero allocations.
func StartSpan(ctx context.Context, name string) (context.Context, func()) {
	return obs.SpanCtx(ctx, obs.From(ctx), name)
}

// WriteChromeTrace converts a JSONL trace captured by a TraceWriter
// (read from r) into the Chrome trace-event format on w, loadable in
// chrome://tracing or Perfetto: one complete event per span, grouped
// into tracks by root span. `cmd/multiclust -trace out.jsonl -chrome
// out.json` wraps this.
func WriteChromeTrace(r io.Reader, w io.Writer) error { return obs.WriteChromeTrace(r, w) }

// RuntimePoller periodically samples Go runtime metrics (goroutines,
// live heap, GC pause and scheduling-latency totals) into a Collector as
// runtime.* gauges; stop it with Stop. `multiclust -serve` runs one so
// /metrics carries process health next to workload counters.
type RuntimePoller = obs.RuntimePoller

// StartRuntimePoller samples runtime metrics into c immediately and then
// every interval (clamped to >=100ms) until Stop.
func StartRuntimePoller(c *Collector, interval time.Duration) *RuntimePoller {
	return obs.StartRuntimePoller(c, interval)
}

// ---------------------------------------------------------------------------
// Robustness — typed errors, validation, sanitization
// ---------------------------------------------------------------------------

// Typed error sentinels; match with errors.Is. Every error returned by this
// package wraps one of these (or is a plain configuration error).
var (
	// ErrEmptyDataset marks calls on zero rows.
	ErrEmptyDataset = core.ErrEmptyDataset
	// ErrInvalidInput marks NaN/Inf contamination, nil inputs, or invalid
	// configuration values.
	ErrInvalidInput = core.ErrInvalidInput
	// ErrShape marks ragged rows and mismatched lengths.
	ErrShape = core.ErrShape
	// ErrInterrupted marks context cancellation; the accompanying result is
	// the valid best-so-far state at the last iteration boundary.
	ErrInterrupted = core.ErrInterrupted
	// ErrDegenerate marks numerically collapsed outcomes (e.g. a non-finite
	// EM log-likelihood) after the retry budget is exhausted.
	ErrDegenerate = core.ErrDegenerate
	// ErrPanic marks an internal panic converted to an error at the facade.
	ErrPanic = core.ErrPanic
)

// Policy selects how Sanitize repairs invalid rows; Report records what a
// pass changed.
type (
	Policy = robust.Policy
	Report = robust.Report
)

// Sanitization policies.
const (
	Reject     = robust.Reject
	DropRows   = robust.DropRows
	ImputeMean = robust.ImputeMean
)

// Validation and repair entry points. ValidateDataset is the gate every
// algorithm in this package runs behind; call it (or Sanitize) directly to
// check data once and skip repeated validation cost.
var (
	ValidateDataset = robust.ValidateDataset
	ValidateLabels  = robust.ValidateLabels
	ValidatePair    = metrics.ValidatePair
	Sanitize        = robust.Sanitize
)

// retryBudget bounds the deterministic reseed schedule (Seed, Seed+1, ...)
// used when a stochastic fit degenerates; see internal/robust.Retry.
const retryBudget = 3

// gate is the facade gate every algorithm in this package runs behind: the
// first non-nil validation check is returned without running fn, and a
// panic inside fn is converted into an error wrapping ErrPanic. The checks
// are the caller's ValidateDataset / ValidateClustering(s) / ValidateViews
// results, listed in the order they are reported.
func gate[T any](fn func() (T, error), checks ...error) (res T, err error) {
	defer robust.RecoverTo(&err)
	for _, check := range checks {
		if check != nil {
			return res, check
		}
	}
	return fn()
}

// ---------------------------------------------------------------------------
// Core types
// ---------------------------------------------------------------------------

// Clustering is a flat (partial) partition of n objects; label Noise marks
// unclustered objects.
type Clustering = core.Clustering

// SubspaceCluster is an (object set, dimension set) pair.
type SubspaceCluster = core.SubspaceCluster

// SubspaceClustering is a result set of subspace clusters.
type SubspaceClustering = core.SubspaceClustering

// MultiResult is a set of clustering solutions over one database.
type MultiResult = core.MultiResult

// Noise is the label of unclustered objects.
const Noise = core.Noise

// NewClustering wraps a label vector.
func NewClustering(labels []int) *Clustering { return core.NewClustering(labels) }

// NewMultiResult bundles clustering solutions for twin-objective evaluation.
func NewMultiResult(clusterings ...*Clustering) *MultiResult {
	return core.NewMultiResult(clusterings...)
}

// NewSubspaceCluster builds a subspace cluster from object and dimension
// index sets.
func NewSubspaceCluster(objects, dims []int) SubspaceCluster {
	return core.NewSubspaceCluster(objects, dims)
}

// FromClusters builds a Clustering of n objects from explicit member lists.
func FromClusters(n int, clusters [][]int) (*Clustering, error) {
	return core.FromClusters(n, clusters)
}

// ---------------------------------------------------------------------------
// Datasets and generators
// ---------------------------------------------------------------------------

// Dataset is a table of n points in d dimensions.
type Dataset = dataset.Dataset

// ViewSpec describes one hidden view for MultiViewGaussians.
type ViewSpec = dataset.ViewSpec

// SubspaceSpec describes one hidden subspace cluster for SubspaceData.
type SubspaceSpec = dataset.SubspaceSpec

// NewDataset wraps points.
func NewDataset(points [][]float64) *Dataset { return dataset.New(points) }

// ReadCSV parses a numeric CSV dataset. Ragged rows and non-finite values
// are rejected with positional errors (ErrShape / ErrInvalidInput).
func ReadCSV(r io.Reader, hasHeader bool) (*Dataset, error) { return dataset.ReadCSV(r, hasHeader) }

// GaussianBlobs, FourBlobToy, MultiViewGaussians, SubspaceData,
// TwoSourceViews, UniformHypercube, RingAndBlob are the deterministic
// generators used throughout the experiments.
var (
	GaussianBlobs      = dataset.GaussianBlobs
	FourBlobToy        = dataset.FourBlobToy
	MultiViewGaussians = dataset.MultiViewGaussians
	SubspaceData       = dataset.SubspaceData
	TwoSourceViews     = dataset.TwoSourceViews
	UniformHypercube   = dataset.UniformHypercube
	RingAndBlob        = dataset.RingAndBlob
	CombineLabels      = dataset.CombineLabels
	DistanceContrast   = dataset.DistanceContrast
)

// ---------------------------------------------------------------------------
// Base learners (traditional single-solution clustering)
// ---------------------------------------------------------------------------

// KMeansConfig / KMeansResult configure and report Lloyd's k-means.
type (
	KMeansConfig = kmeans.Config
	KMeansResult = kmeans.Result
)

// Pruning selects the k-means assignment strategy (KMeansConfig.Pruning):
// Hamerly triangle-inequality bounds by default, byte-identical to the
// plain Lloyd scans in every output and recorded trajectory.
type Pruning = kmeans.Pruning

// Pruning values.
const (
	PruneDefault = kmeans.PruneDefault
	PruneOff     = kmeans.PruneOff
	PruneHamerly = kmeans.PruneHamerly
)

// KMeans clusters points with k-means++.
func KMeans(points [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	return KMeansContext(context.Background(), points, cfg)
}

// KMeansContext is KMeans with cancellation: ctx is polled after every
// Lloyd iteration; when it is done, the best clustering found so far is
// returned wrapped in ErrInterrupted.
func KMeansContext(ctx context.Context, points [][]float64, cfg KMeansConfig) (res *KMeansResult, err error) {
	return gate(func() (*KMeansResult, error) {
		return kmeans.RunContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// DBSCANConfig configures density-based clustering.
type DBSCANConfig = dbscan.Config

// DBSCAN clusters points with DBSCAN under the Euclidean distance.
func DBSCAN(points [][]float64, cfg DBSCANConfig) (*Clustering, error) {
	return DBSCANContext(context.Background(), points, cfg)
}

// DBSCANContext is DBSCAN with cancellation: ctx is polled between object
// expansions; objects not yet visited when it fires are labeled Noise and
// the partial clustering is returned wrapped in ErrInterrupted. The
// Euclidean neighborhoods are served by a uniform-grid spatial index (cell
// width Eps) whenever the dimensionality permits, with labels identical to
// the linear scan.
func DBSCANContext(ctx context.Context, points [][]float64, cfg DBSCANConfig) (res *Clustering, err error) {
	return gate(func() (*Clustering, error) {
		return dbscan.RunContext(ctx, points, nil, cfg)
	}, robust.ValidateDataset(points))
}

// Linkage selects the agglomerative merge rule.
type Linkage = hierarchical.Linkage

// Linkage values.
const (
	SingleLink   = hierarchical.SingleLink
	CompleteLink = hierarchical.CompleteLink
	AverageLink  = hierarchical.AverageLink
)

// Dendrogram is an agglomerative merge history; Cut yields flat clusterings.
type Dendrogram = hierarchical.Dendrogram

// Hierarchical builds the dendrogram of points under the Euclidean distance.
func Hierarchical(points [][]float64, linkage Linkage) (res *Dendrogram, err error) {
	return gate(func() (*Dendrogram, error) {
		return hierarchical.Run(points, dist.Euclidean, linkage)
	}, robust.ValidateDataset(points))
}

// EMConfig / EMResult / GMM configure and report Gaussian-mixture EM.
type (
	EMConfig = em.Config
	EMResult = em.Result
	GMM      = em.Model
)

// EM fits a diagonal-covariance Gaussian mixture. A fit that collapses to a
// non-finite log-likelihood is retried on the deterministic seed schedule
// Seed+1, Seed+2, ...; exhaustion returns an error wrapping ErrDegenerate.
func EM(points [][]float64, cfg EMConfig) (*EMResult, error) {
	return EMContext(context.Background(), points, cfg)
}

// EMContext is EM with cancellation: ctx is polled after every E+M
// iteration; when it is done, the current model and posteriors are returned
// wrapped in ErrInterrupted.
func EMContext(ctx context.Context, points [][]float64, cfg EMConfig) (res *EMResult, err error) {
	return gate(func() (*EMResult, error) {
		return robust.RetryValueBackoff(ctx, cfg.Seed, retryBudget, robust.Backoff{}, func(seed int64) (*EMResult, error) {
			c := cfg
			c.Seed = seed
			r, ferr := em.FitContext(ctx, points, c)
			if ferr != nil || r == nil {
				return r, ferr
			}
			if math.IsNaN(r.LogLik) || math.IsInf(r.LogLik, 0) {
				return nil, fmt.Errorf("multiclust: em seed %d: non-finite log-likelihood: %w", seed, core.ErrDegenerate)
			}
			return r, nil
		})
	}, robust.ValidateDataset(points))
}

// SpectralConfig / SpectralResult configure and report normalized spectral
// clustering.
type (
	SpectralConfig = spectral.Config
	SpectralResult = spectral.Result
)

// Spectral runs normalized spectral clustering (Ng, Jordan & Weiss 2001).
// A run whose embedding degenerates to non-finite coordinates is retried on
// the deterministic seed schedule Seed+1, Seed+2, ...
func Spectral(points [][]float64, cfg SpectralConfig) (*SpectralResult, error) {
	return SpectralContext(context.Background(), points, cfg)
}

// SpectralContext is Spectral with cancellation: ctx is polled at every
// Jacobi eigensolve sweep and every k-means iteration on the embedding; the
// partial result is returned wrapped in ErrInterrupted.
func SpectralContext(ctx context.Context, points [][]float64, cfg SpectralConfig) (res *SpectralResult, err error) {
	return gate(func() (*SpectralResult, error) {
		return robust.RetryValueBackoff(ctx, cfg.Seed, retryBudget, robust.Backoff{}, func(seed int64) (*SpectralResult, error) {
			c := cfg
			c.Seed = seed
			r, ferr := spectral.RunContext(ctx, points, c)
			if ferr != nil || r == nil {
				return r, ferr
			}
			if r.Embedding != nil {
				for _, v := range r.Embedding.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return nil, fmt.Errorf("multiclust: spectral seed %d: non-finite embedding: %w", seed, core.ErrDegenerate)
					}
				}
			}
			return r, nil
		})
	}, robust.ValidateDataset(points))
}

// ---------------------------------------------------------------------------
// Section 2 — multiple clusterings in the original data space
// ---------------------------------------------------------------------------

// MetaClusteringConfig / MetaClusteringResult: Caruana et al. 2006.
type (
	MetaClusteringConfig = metaclust.Config
	MetaClusteringResult = metaclust.Result
)

// MetaClustering generates many base clusterings and groups them at the
// meta level, returning one representative per group.
func MetaClustering(points [][]float64, cfg MetaClusteringConfig) (*MetaClusteringResult, error) {
	return MetaClusteringContext(context.Background(), points, cfg)
}

// MetaClusteringContext is MetaClustering with cancellation: ctx is polled
// inside every base k-means generation; interrupted base solutions are
// still valid clusterings, the meta grouping runs on them, and the result
// is returned wrapped in ErrInterrupted.
func MetaClusteringContext(ctx context.Context, points [][]float64, cfg MetaClusteringConfig) (res *MetaClusteringResult, err error) {
	return gate(func() (*MetaClusteringResult, error) {
		return metaclust.RunContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// CoalaConfig / CoalaResult: Bae & Bailey 2006.
type (
	CoalaConfig = alternative.CoalaConfig
	CoalaResult = alternative.CoalaResult
)

// Coala computes an alternative clustering via cannot-link constrained
// agglomeration.
func Coala(points [][]float64, given *Clustering, cfg CoalaConfig) (res *CoalaResult, err error) {
	return CoalaContext(context.Background(), points, given, cfg)
}

// CoalaContext is Coala with cancellation: ctx is polled at every merge
// boundary; when it fires, the completed merges are flattened into a valid
// clustering (coarser than requested, never half-merged) and returned
// wrapped in ErrInterrupted. With a background context the output is
// byte-identical to Coala.
func CoalaContext(ctx context.Context, points [][]float64, given *Clustering, cfg CoalaConfig) (res *CoalaResult, err error) {
	return gate(func() (*CoalaResult, error) {
		return alternative.CoalaContext(ctx, points, given, cfg)
	}, robust.ValidateDataset(points), robust.ValidateClustering(given, len(points)))
}

// CIBConfig / CIBResult: conditional information bottleneck (Gondek &
// Hofmann 2003/2004).
type (
	CIBConfig = alternative.CIBConfig
	CIBResult = alternative.CIBResult
)

// CIB computes an alternative clustering by minimizing
// I(X;C) - Beta*I(Y;C|D).
func CIB(points [][]float64, given *Clustering, cfg CIBConfig) (res *CIBResult, err error) {
	return gate(func() (*CIBResult, error) {
		return alternative.CIB(points, given, cfg)
	}, robust.ValidateDataset(points), robust.ValidateClustering(given, len(points)))
}

// FlexibleConfig / FlexibleResult: the tutorial's abstract problem (slide
// 27) as a runnable search with exchangeable Q and Diss definitions.
type (
	FlexibleConfig = alternative.FlexibleConfig
	FlexibleResult = alternative.FlexibleResult
)

// Flexible maximizes Q(C) + Lambda * mean Diss(C, Given_i) with pluggable
// quality and dissimilarity definitions — the "exchangeable definition"
// flexibility axis of the taxonomy.
func Flexible(points [][]float64, givens []*Clustering, q QualityFunc, diss DissimilarityFunc, cfg FlexibleConfig) (res *FlexibleResult, err error) {
	return gate(func() (*FlexibleResult, error) {
		return alternative.Flexible(points, givens, q, diss, cfg)
	}, robust.ValidateDataset(points), robust.ValidateClusterings(givens, len(points)))
}

// CondEnsConfig / CondEnsResult: conditional ensembles (Gondek & Hofmann
// 2005).
type (
	CondEnsConfig = alternative.CondEnsConfig
	CondEnsResult = alternative.CondEnsResult
)

// CondEns selects an alternative clustering from a diverse ensemble by
// quality minus information overlap with the given clustering.
func CondEns(points [][]float64, given *Clustering, cfg CondEnsConfig) (res *CondEnsResult, err error) {
	return gate(func() (*CondEnsResult, error) {
		return alternative.CondEns(points, given, cfg)
	}, robust.ValidateDataset(points), robust.ValidateClustering(given, len(points)))
}

// MinCEntropyConfig / MinCEntropyResult: Vinh & Epps 2010.
type (
	MinCEntropyConfig = alternative.MinCEntropyConfig
	MinCEntropyResult = alternative.MinCEntropyResult
)

// MinCEntropy finds an alternative to a SET of given clusterings by
// penalized kernel-quality search.
func MinCEntropy(points [][]float64, givens []*Clustering, cfg MinCEntropyConfig) (res *MinCEntropyResult, err error) {
	return gate(func() (*MinCEntropyResult, error) {
		return alternative.MinCEntropy(points, givens, cfg)
	}, robust.ValidateDataset(points), robust.ValidateClusterings(givens, len(points)))
}

// DecKMeansConfig / DecKMeansResult: Jain, Meka & Dhillon 2008.
type (
	DecKMeansConfig = simultaneous.DecKMeansConfig
	DecKMeansResult = simultaneous.DecKMeansResult
)

// DecKMeans fits T decorrelated k-means clusterings simultaneously.
func DecKMeans(points [][]float64, cfg DecKMeansConfig) (res *DecKMeansResult, err error) {
	return gate(func() (*DecKMeansResult, error) {
		return simultaneous.DecKMeans(points, cfg)
	}, robust.ValidateDataset(points))
}

// CAMIConfig / CAMIResult: Dang & Bailey 2010a.
type (
	CAMIConfig = simultaneous.CAMIConfig
	CAMIResult = simultaneous.CAMIResult
)

// CAMI fits two mixture models maximizing likelihood minus mutual
// information between the clusterings.
func CAMI(points [][]float64, cfg CAMIConfig) (res *CAMIResult, err error) {
	return gate(func() (*CAMIResult, error) {
		return simultaneous.CAMI(points, cfg)
	}, robust.ValidateDataset(points))
}

// ContingencyConfig / ContingencyResult: Hossain et al. 2010.
type (
	ContingencyConfig = simultaneous.ContingencyConfig
	ContingencyResult = simultaneous.ContingencyResult
)

// Contingency finds two prototype-based clusterings with a near-uniform
// contingency table.
func Contingency(points [][]float64, cfg ContingencyConfig) (res *ContingencyResult, err error) {
	return gate(func() (*ContingencyResult, error) {
		return simultaneous.Contingency(points, cfg)
	}, robust.ValidateDataset(points))
}

// ---------------------------------------------------------------------------
// Section 3 — orthogonal space transformations
// ---------------------------------------------------------------------------

// Base is the pluggable clustering step used inside transformation methods.
type Base = orthogonal.Base

// KMeansBase adapts k-means as the base learner for transformation methods.
func KMeansBase(k int, seed int64) Base { return orthogonal.KMeansBase(k, seed) }

// MetricFlipResult: Davidson & Qi 2008.
type MetricFlipResult = orthogonal.MetricFlipResult

// MetricFlip learns a metric from the given clustering, SVDs it and inverts
// the stretch to reveal an alternative grouping.
func MetricFlip(points [][]float64, given *Clustering, base Base) (res *MetricFlipResult, err error) {
	return gate(func() (*MetricFlipResult, error) {
		return orthogonal.MetricFlip(points, given, base)
	}, robust.ValidateDataset(points), robust.ValidateClustering(given, len(points)))
}

// AlternativeTransformResult: Qi & Davidson 2009.
type AlternativeTransformResult = orthogonal.AlternativeTransformResult

// AlternativeTransform applies the closed-form M = Sigma~^{-1/2} transform.
func AlternativeTransform(points [][]float64, given *Clustering, base Base) (res *AlternativeTransformResult, err error) {
	return gate(func() (*AlternativeTransformResult, error) {
		return orthogonal.AlternativeTransform(points, given, base)
	}, robust.ValidateDataset(points), robust.ValidateClustering(given, len(points)))
}

// OrthogonalProjectionsConfig / ProjectionIteration: Cui, Fern & Dy 2007.
type (
	OrthogonalProjectionsConfig = orthogonal.OrthogonalProjectionsConfig
	ProjectionIteration         = orthogonal.ProjectionIteration
)

// OrthogonalProjections iteratively clusters and projects the data onto the
// orthogonal complement of each clustering's mean subspace.
func OrthogonalProjections(points [][]float64, base Base, cfg OrthogonalProjectionsConfig) (res []ProjectionIteration, err error) {
	return gate(func() ([]ProjectionIteration, error) {
		return orthogonal.OrthogonalProjections(points, base, cfg)
	}, robust.ValidateDataset(points))
}

// ---------------------------------------------------------------------------
// Section 4 — subspace projections
// ---------------------------------------------------------------------------

// Subspace clustering configs and results.
type (
	CliqueConfig   = subspace.CliqueConfig
	CliqueResult   = subspace.CliqueResult
	SchismConfig   = subspace.SchismConfig
	SchismResult   = subspace.SchismResult
	SubcluConfig   = subspace.SubcluConfig
	DuscConfig     = subspace.DuscConfig
	SubcluResult   = subspace.SubcluResult
	ProclusConfig  = subspace.ProclusConfig
	ProclusResult  = subspace.ProclusResult
	DOCConfig      = subspace.DOCConfig
	DOCResult      = subspace.DOCResult
	EnclusConfig   = subspace.EnclusConfig
	RISConfig      = subspace.RISConfig
	RISScore       = subspace.RISScore
	SubspaceScore  = subspace.SubspaceScore
	OscluConfig    = subspace.OscluConfig
	AscluConfig    = subspace.AscluConfig
	StatPCConfig   = subspace.StatPCConfig
	StatPCResult   = subspace.StatPCResult
	RescuConfig    = subspace.RescuConfig
	GridCluster    = subspace.GridCluster
	GridStats      = subspace.GridStats
	FiresConfig    = subspace.FiresConfig
	FiresResult    = subspace.FiresResult
	MineClusConfig = subspace.MineClusConfig
	MineClusResult = subspace.MineClusResult
	OrclusConfig   = subspace.OrclusConfig
	OrclusResult   = subspace.OrclusResult
	OrclusCluster  = subspace.OrclusCluster
	PredeconConfig = subspace.PredeconConfig
	PredeconResult = subspace.PredeconResult
)

// Clique finds all clusters as connected dense grid cells in every subspace
// (Agrawal et al. 1998). Points must be normalized to [0,1]^d.
func Clique(points [][]float64, cfg CliqueConfig) (res *CliqueResult, err error) {
	return gate(func() (*CliqueResult, error) {
		return subspace.Clique(points, cfg)
	}, robust.ValidateDataset(points))
}

// Schism runs the grid search with the dimensionality-adaptive
// Chernoff–Hoeffding threshold (Sequeira & Zaki 2004).
func Schism(points [][]float64, cfg SchismConfig) (res *SchismResult, err error) {
	return gate(func() (*SchismResult, error) {
		return subspace.Schism(points, cfg)
	}, robust.ValidateDataset(points))
}

// Subclu finds density-connected clusters in all subspaces (Kailing et al.
// 2004b).
func Subclu(points [][]float64, cfg SubcluConfig) (res *SubcluResult, err error) {
	return gate(func() (*SubcluResult, error) {
		return subspace.Subclu(points, cfg)
	}, robust.ValidateDataset(points))
}

// Dusc runs SUBCLU with DUSC's dimensionality-unbiased density threshold
// (Assent et al. 2007).
func Dusc(points [][]float64, cfg DuscConfig) (res *SubcluResult, err error) {
	return gate(func() (*SubcluResult, error) {
		return subspace.Dusc(points, cfg)
	}, robust.ValidateDataset(points))
}

// Proclus runs projected k-medoid clustering (Aggarwal et al. 1999).
func Proclus(points [][]float64, cfg ProclusConfig) (*ProclusResult, error) {
	return ProclusContext(context.Background(), points, cfg)
}

// ProclusContext is Proclus with cancellation: ctx is polled at every
// medoid-refinement iteration; the best projected clustering so far is
// returned wrapped in ErrInterrupted.
func ProclusContext(ctx context.Context, points [][]float64, cfg ProclusConfig) (res *ProclusResult, err error) {
	return gate(func() (*ProclusResult, error) {
		return subspace.ProclusContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// DOC finds projective clusters by Monte-Carlo sampling (Procopiuc et al.
// 2002).
func DOC(points [][]float64, cfg DOCConfig) (*DOCResult, error) {
	return DOCContext(context.Background(), points, cfg)
}

// DOCContext is DOC with cancellation: ctx is polled between cluster hunts;
// the clusters found so far are returned wrapped in ErrInterrupted.
func DOCContext(ctx context.Context, points [][]float64, cfg DOCConfig) (res *DOCResult, err error) {
	return gate(func() (*DOCResult, error) {
		return subspace.DOCContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// Enclus ranks subspaces by grid entropy (Cheng, Fu & Zhang 1999).
func Enclus(points [][]float64, cfg EnclusConfig) (res []SubspaceScore, err error) {
	return gate(func() ([]SubspaceScore, error) {
		return subspace.Enclus(points, cfg)
	}, robust.ValidateDataset(points))
}

// RIS ranks subspaces by density-based interestingness (Kailing et al.
// 2003).
func RIS(points [][]float64, cfg RISConfig) (res []RISScore, err error) {
	return gate(func() ([]RISScore, error) {
		return subspace.RIS(points, cfg)
	}, robust.ValidateDataset(points))
}

// Osclu selects an orthogonal-concept result set out of a redundant
// candidate pool (Günnemann et al. 2009).
func Osclu(all SubspaceClustering, cfg OscluConfig) (res SubspaceClustering, err error) {
	return gate(func() (SubspaceClustering, error) {
		return subspace.Osclu(all, cfg)
	})
}

// Asclu selects alternative subspace clusters w.r.t. a Known clustering
// (Günnemann et al. 2010).
func Asclu(all SubspaceClustering, cfg AscluConfig) (res SubspaceClustering, err error) {
	return gate(func() (SubspaceClustering, error) {
		return subspace.Asclu(all, cfg)
	})
}

// StatPC keeps statistically significant, unexplained clusters (reduced-form
// Moise & Sander 2008).
func StatPC(candidates []GridCluster, cfg StatPCConfig) (res *StatPCResult, err error) {
	return gate(func() (*StatPCResult, error) {
		return subspace.StatPC(candidates, cfg)
	})
}

// Rescu admits interesting clusters and excludes globally redundant ones
// (reduced-form Müller et al. 2009c).
func Rescu(all SubspaceClustering, cfg RescuConfig) (res SubspaceClustering, err error) {
	return gate(func() (SubspaceClustering, error) {
		return subspace.Rescu(all, cfg)
	})
}

// Fires approximates maximal-dimensional subspace clusters by merging
// one-dimensional base clusters (Kriegel et al. 2005).
func Fires(points [][]float64, cfg FiresConfig) (res *FiresResult, err error) {
	return gate(func() (*FiresResult, error) {
		return subspace.Fires(points, cfg)
	}, robust.ValidateDataset(points))
}

// MineClus finds projective clusters with the deterministic
// frequent-pattern search (Yiu & Mamoulis 2003).
func MineClus(points [][]float64, cfg MineClusConfig) (*MineClusResult, error) {
	return MineClusContext(context.Background(), points, cfg)
}

// MineClusContext is MineClus with cancellation: ctx is polled between
// cluster hunts; the clusters found so far are returned wrapped in
// ErrInterrupted.
func MineClusContext(ctx context.Context, points [][]float64, cfg MineClusConfig) (res *MineClusResult, err error) {
	return gate(func() (*MineClusResult, error) {
		return subspace.MineClusContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// Orclus finds arbitrarily oriented projected clusters (Aggarwal & Yu 2000).
func Orclus(points [][]float64, cfg OrclusConfig) (*OrclusResult, error) {
	return OrclusContext(context.Background(), points, cfg)
}

// OrclusContext is Orclus with cancellation: ctx is polled at every
// assign-recompute iteration; the clustering finalized from the current
// centers is returned wrapped in ErrInterrupted.
func OrclusContext(ctx context.Context, points [][]float64, cfg OrclusConfig) (res *OrclusResult, err error) {
	return gate(func() (*OrclusResult, error) {
		return subspace.OrclusContext(ctx, points, cfg)
	}, robust.ValidateDataset(points))
}

// Predecon runs density-connected clustering with local subspace
// preferences (Böhm et al. 2004a).
func Predecon(points [][]float64, cfg PredeconConfig) (res *PredeconResult, err error) {
	return gate(func() (*PredeconResult, error) {
		return subspace.Predecon(points, cfg)
	}, robust.ValidateDataset(points))
}

// ---------------------------------------------------------------------------
// Section 5 — multiple given views/sources
// ---------------------------------------------------------------------------

// Multi-view configs and results.
type (
	CoEMConfig                     = multiview.CoEMConfig
	CoEMResult                     = multiview.CoEMResult
	MVDBSCANConfig                 = multiview.MVDBSCANConfig
	CombineMode                    = multiview.CombineMode
	MSCConfig                      = multiview.MSCConfig
	MSCView                        = multiview.MSCView
	UniversesConfig                = multiview.UniversesConfig
	UniversesResult                = multiview.UniversesResult
	DistributedDBSCANConfig        = multiview.DistributedDBSCANConfig
	DistributedDBSCANResult        = multiview.DistributedDBSCANResult
	ConsensusConfig                = multiview.ConsensusConfig
	RandomProjectionEnsembleConfig = multiview.RandomProjectionEnsembleConfig
	RandomProjectionEnsembleResult = multiview.RandomProjectionEnsembleResult
)

// Neighbourhood combination modes for MVDBSCAN.
const (
	Union        = multiview.Union
	Intersection = multiview.Intersection
)

// CoEM runs interleaved two-view EM (Bickel & Scheffer 2004).
func CoEM(viewA, viewB [][]float64, cfg CoEMConfig) (res *CoEMResult, err error) {
	return gate(func() (*CoEMResult, error) {
		return multiview.CoEM(viewA, viewB, cfg)
	}, robust.ValidateViews(viewA, viewB))
}

// MVDBSCAN runs multi-represented DBSCAN with union or intersection
// neighbourhoods (Kailing et al. 2004a).
func MVDBSCAN(views [][][]float64, cfg MVDBSCANConfig) (res *Clustering, err error) {
	return gate(func() (*Clustering, error) {
		return multiview.MVDBSCAN(views, cfg)
	}, robust.ValidateViews(views...))
}

// TwoViewSpectral clusters two views via their combined affinity (de Sa
// 2005).
func TwoViewSpectral(viewA, viewB [][]float64, k int, seed int64) (res *Clustering, err error) {
	return gate(func() (*Clustering, error) {
		return multiview.TwoViewSpectral(viewA, viewB, k, seed)
	}, robust.ValidateViews(viewA, viewB))
}

// MSC extracts multiple non-redundant spectral views (Niu & Dy 2010 style).
func MSC(points [][]float64, cfg MSCConfig) (res []MSCView, err error) {
	return gate(func() ([]MSCView, error) {
		return multiview.MSC(points, cfg)
	}, robust.ValidateDataset(points))
}

// HSIC measures statistical dependence between two feature groups (Gretton
// et al. 2005).
func HSIC(x, y [][]float64) (v float64, err error) {
	return gate(func() (float64, error) {
		return multiview.HSIC(x, y)
	}, robust.ValidateViews(x, y))
}

// ParallelUniverses runs fuzzy clustering in parallel universes (Wiswedel,
// Höppner & Berthold 2010): objects learn which universe (view) they belong
// to while each universe clusters only its own objects.
func ParallelUniverses(views [][][]float64, cfg UniversesConfig) (res *UniversesResult, err error) {
	return gate(func() (*UniversesResult, error) {
		return multiview.ParallelUniverses(views, cfg)
	}, robust.ValidateViews(views...))
}

// DistributedDBSCAN runs scalable density-based distributed clustering
// (Januzaj, Kriegel & Pfeifle 2004): local DBSCAN per site, representative
// exchange, central merge.
func DistributedDBSCAN(points [][]float64, cfg DistributedDBSCANConfig) (res *DistributedDBSCANResult, err error) {
	return gate(func() (*DistributedDBSCANResult, error) {
		return multiview.DistributedDBSCAN(points, cfg)
	}, robust.ValidateDataset(points))
}

// CSPA computes a consensus clustering from hard labelings (Strehl & Ghosh
// 2002).
func CSPA(labelings [][]int, cfg ConsensusConfig) (res *Clustering, err error) {
	return gate(func() (*Clustering, error) {
		if len(labelings) == 0 {
			return nil, core.ErrEmptyDataset
		}
		for i, l := range labelings {
			if err := robust.ValidateLabels(l, len(labelings[0])); err != nil {
				return nil, fmt.Errorf("multiclust: labeling %d: %w", i, err)
			}
		}
		return multiview.CSPA(labelings, cfg)
	})
}

// SharedNMI is the ensemble objective of Strehl & Ghosh.
func SharedNMI(consensus []int, labelings [][]int) float64 {
	return multiview.SharedNMI(consensus, labelings)
}

// RandomProjectionEnsemble runs the Fern & Brodley (2003) consensus
// pipeline.
func RandomProjectionEnsemble(points [][]float64, cfg RandomProjectionEnsembleConfig) (res *RandomProjectionEnsembleResult, err error) {
	return gate(func() (*RandomProjectionEnsembleResult, error) {
		return multiview.RandomProjectionEnsemble(points, cfg)
	}, robust.ValidateDataset(points))
}

// ---------------------------------------------------------------------------
// Metrics — the Q and Diss functions
// ---------------------------------------------------------------------------

// Clustering comparison and quality measures. The float64-returning
// measures keep the DissimilarityFunc-compatible signature and return NaN —
// never panic — on mismatched inputs; use ValidatePair for a typed error.
var (
	RandIndex              = metrics.RandIndex
	AdjustedRand           = metrics.AdjustedRand
	JaccardIndex           = metrics.JaccardIndex
	PairF1                 = metrics.PairF1
	NMI                    = metrics.NMI
	VariationOfInformation = metrics.VariationOfInformation
	MutualInformation      = metrics.MutualInformation
	ConditionalEntropy     = metrics.ConditionalEntropy
	Purity                 = metrics.Purity
	SSE                    = metrics.SSE
	Silhouette             = metrics.Silhouette
	SubspaceF1             = metrics.SubspaceF1
	SubspaceDimPrecision   = metrics.SubspaceDimPrecision
	Redundancy             = metrics.Redundancy
	ADCO                   = metrics.ADCO
)

// QualityFunc / DissimilarityFunc are the tutorial's abstract Q and Diss
// interfaces (slide 27); ready-made instances below.
type (
	QualityFunc       = core.QualityFunc
	DissimilarityFunc = core.DissimilarityFunc
)

// Ready-made Q and Diss instances and the combined-objective evaluator of
// slide 39.
var (
	NegSSEQuality       = metrics.NegSSEQuality
	SilhouetteQuality   = metrics.SilhouetteQuality
	RandDissimilarity   = metrics.RandDissimilarity
	VIDissimilarity     = metrics.VIDissimilarity
	NMIDissimilarity    = metrics.NMIDissimilarity
	ADCODissimilarity   = metrics.ADCODissimilarity
	EvaluateSolutionSet = metrics.EvaluateSolutionSet
)

// ---------------------------------------------------------------------------
// Streaming / incremental clustering
// ---------------------------------------------------------------------------

// Streaming learners consume a row stream chunk by chunk (Push) and
// materialize their current state on demand (Snapshot). The contract,
// pinned by internal/stream/streamtest: a single-chunk stream is
// byte-identical to the batch algorithm on the same rows; multi-chunk
// streams stay inside a pinned drift envelope; snapshots are
// byte-identical at any worker count. PushContext/SnapshotContext honour
// cancellation at chunk boundaries with best-so-far ErrInterrupted
// semantics. Learners are not safe for concurrent use — the serve layer
// serializes chunk processing per job.
type (
	// StreamKMeansConfig configures incremental mini-batch k-means
	// (Sculley 2010 on this repo's deterministic batch core).
	StreamKMeansConfig = stream.MiniBatchConfig
	// StreamKMeans is the mini-batch k-means learner.
	StreamKMeans = stream.MiniBatch
	// StreamKMeansSnapshot is its point-in-time state (centers, counts,
	// last-chunk labels and SSE).
	StreamKMeansSnapshot = stream.KMeansSnapshot
	// StreamEnsembleConfig configures the sliding-window meta-clustering
	// ensemble (base solutions per chunk, window length, meta clusters).
	StreamEnsembleConfig = stream.EnsembleConfig
	// StreamEnsemble is the mergeable sliding-window ensemble learner.
	StreamEnsemble = stream.Ensemble
	// StreamEnsembleSnapshot is the grouped view of the current window.
	StreamEnsembleSnapshot = stream.EnsembleSnapshot
	// StreamCoEMConfig configures online multi-view co-EM with
	// exponential forgetting.
	StreamCoEMConfig = stream.CoEMConfig
	// StreamCoEM is the online co-EM learner.
	StreamCoEM = stream.CoEM
	// StreamCoEMSnapshot carries both view models and the consensus
	// clustering of the most recent chunk.
	StreamCoEMSnapshot = stream.CoEMSnapshot
)

// NewStreamKMeans builds an incremental mini-batch k-means learner.
func NewStreamKMeans(cfg StreamKMeansConfig) (*StreamKMeans, error) {
	return stream.NewMiniBatch(cfg)
}

// NewStreamEnsemble builds a sliding-window meta-clustering ensemble.
func NewStreamEnsemble(cfg StreamEnsembleConfig) (*StreamEnsemble, error) {
	return stream.NewEnsemble(cfg)
}

// NewStreamCoEM builds an online co-EM learner over column-split views.
func NewStreamCoEM(cfg StreamCoEMConfig) (*StreamCoEM, error) {
	return stream.NewCoEM(cfg)
}

// ---------------------------------------------------------------------------
// Taxonomy
// ---------------------------------------------------------------------------

// TaxonomyEntry is one row of the tutorial's comparison table.
type TaxonomyEntry = taxonomy.Entry

// Taxonomy returns the classification of every implemented algorithm.
func Taxonomy() []TaxonomyEntry { return taxonomy.Registry() }

// WriteTaxonomyTable renders the comparison table (tutorial slide 116).
func WriteTaxonomyTable(w io.Writer) error { return taxonomy.WriteTable(w) }
