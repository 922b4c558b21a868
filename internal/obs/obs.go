// Package obs is multiclust's observability layer: counters, gauges,
// per-iteration observations and timed spans, recorded through a single
// Recorder interface.
//
// The design contract is zero cost when disabled. Algorithms never call
// Recorder methods directly; they go through the package-level helpers
// (Count, Gauge, Observe, Histogram, SpanCtx), which compile to a nil
// check and return when no recorder is installed. The helpers take only
// concrete argument types, so the disabled path performs no interface
// boxing and no allocation — pinned by TestNilRecorderPathDoesNotAllocate
// and the obs_bench_test.go benchmarks at the repository root. The obsnil
// lint rule (internal/lint) flags any direct method call on a
// Recorder-typed value outside this package, so the guarantee cannot
// erode silently.
//
// Determinism: counters are additive and series entries carry their own
// iteration index, so the recorded totals are scheduling-independent even
// when hot paths run under internal/parallel with any worker count. Only
// span durations are wall-clock-dependent; the Collector's Snapshot
// exposes them separately so deterministic comparisons can zero them out.
//
// Resolution order mirrors internal/parallel's worker-count idiom: an
// explicit recorder in the context (NewContext / facade WithRecorder)
// wins, else the process-wide default (SetDefault / facade SetRecorder),
// else nil (disabled).
//
// Spans form a tree. Every span instance carries a process-unique SpanID
// and its parent's id; SpanCtx threads the current id through a
// context.Context so multi-stage algorithms (meta-clustering base runs,
// co-EM rounds, subspace lattice levels) nest their phases under the
// enclosing operation. SpanCtx also applies runtime/pprof goroutine
// labels ("algo", "phase") derived from the span name, so CPU profiles
// taken while a span is open attribute their samples to the algorithm
// phase; internal/parallel workers inherit the labels of the goroutine
// that spawned them, so fanned-out shards are attributed to the phase
// that dispatched them.
package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// Recorder receives instrumentation events. Implementations must be safe
// for concurrent use: hot paths invoke them from internal/parallel
// workers. Call sites outside this package must use the nil-guarded
// package helpers instead of invoking these methods directly (enforced by
// the obsnil lint rule).
type Recorder interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to v (last write wins).
	Gauge(name string, v float64)
	// Observe appends one (iter, v) sample to the named series, e.g. SSE
	// per k-means iteration or log-likelihood per EM iteration.
	Observe(name string, iter int, v float64)
	// Histogram folds one latency observation (in seconds) into the
	// named fixed-exponential-bucket histogram; see HistogramBounds for
	// the process-wide bucket scheme. Callers outside this package use
	// the nil-guarded Histogram helper.
	Histogram(name string, seconds float64)
	// StartSpan opens a named timed region and returns the function that
	// closes it. Implementations record count and total duration. id
	// identifies this span instance (0 when the caller does not track
	// identity) and parent is the id of the enclosing span (0 for a
	// root), letting implementations reconstruct the span tree. Callers
	// outside this package use the SpanCtx helper, which allocates ids
	// from NewSpanID.
	StartSpan(name string, id, parent SpanID) func()
}

// SpanID identifies one live span instance for parent/child attribution.
// Ids are process-unique (drawn from NewSpanID) so a Tee'd recorder set
// sees one consistent id per span; 0 means "no span" and is never
// returned by NewSpanID.
type SpanID uint64

var spanIDs atomic.Uint64

// NewSpanID returns the next process-unique span instance id (never 0).
func NewSpanID() SpanID { return SpanID(spanIDs.Add(1)) }

// noopEnd is the shared span terminator for the disabled path, so
// SpanCtx(ctx, nil, ...) never allocates a closure.
var noopEnd = func() {}

// Count adds delta to rec's named counter; no-op when rec is nil.
func Count(rec Recorder, name string, delta int64) {
	if rec != nil {
		rec.Count(name, delta)
	}
}

// Gauge sets rec's named gauge; no-op when rec is nil.
func Gauge(rec Recorder, name string, v float64) {
	if rec != nil {
		rec.Gauge(name, v)
	}
}

// Observe appends one sample to rec's named series; no-op when rec is nil.
func Observe(rec Recorder, name string, iter int, v float64) {
	if rec != nil {
		rec.Observe(name, iter, v)
	}
}

// Histogram folds one latency observation (seconds) into rec's named
// histogram; no-op when rec is nil. Like the other helpers it takes only
// concrete argument types, so the disabled path is a single pointer test
// with zero allocations.
func Histogram(rec Recorder, name string, seconds float64) {
	if rec != nil {
		rec.Histogram(name, seconds)
	}
}

// spanKey is the context key carrying the current span's id.
type spanKey struct{}

// SpanFromContext returns the span id carried by ctx (0 when no span is
// open on this call path).
func SpanFromContext(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(SpanID)
	return id
}

// SpanCtx opens a named span as a child of the span carried by ctx and
// returns a derived context (carrying the new span id, for deeper
// nesting) plus the end function. It also applies runtime/pprof
// goroutine labels — algo is the span name up to its last dot, phase the
// part after it — so CPU profile samples taken inside the span are
// attributable to the algorithm phase; the end function restores the
// caller's labels. Goroutines spawned inside the span (internal/parallel
// workers) inherit the labels automatically. When rec is nil it returns
// ctx unchanged and a shared no-op end — zero allocations, preserving
// the disabled-path contract.
func SpanCtx(ctx context.Context, rec Recorder, name string) (context.Context, func()) {
	if rec == nil {
		return ctx, noopEnd
	}
	if ctx == nil {
		ctx = context.Background()
	}
	id := NewSpanID()
	end := rec.StartSpan(name, id, SpanFromContext(ctx))
	algo, phase := splitSpanName(name)
	lctx := pprof.WithLabels(context.WithValue(ctx, spanKey{}, id),
		pprof.Labels("algo", algo, "phase", phase))
	pprof.SetGoroutineLabels(lctx)
	return lctx, func() {
		end()
		// Restore the labels the caller's goroutine had before the span
		// opened. Spans end on the goroutine that started them (the end
		// function is deferred in the opening frame — enforced by the
		// spanend lint rule), so this resets exactly the right goroutine.
		pprof.SetGoroutineLabels(ctx)
	}
}

// splitSpanName maps "kmeans.run" to ("kmeans", "run") and
// "subspace.grid.level" to ("subspace.grid", "level"); a name without a
// dot is both algo and phase.
func splitSpanName(name string) (algo, phase string) {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[:i], name[i+1:]
		}
	}
	return name, name
}

// holder wraps the default recorder so atomic.Value tolerates differing
// concrete types (and nil) across stores.
type holder struct{ rec Recorder }

var defaultRecorder atomic.Value // holder

// SetDefault installs rec as the process-wide recorder consulted by hot
// paths that have no context. Pass nil to disable. Safe for concurrent
// use, but the deterministic-dump guarantee assumes the recorder is not
// swapped mid-run.
func SetDefault(rec Recorder) { defaultRecorder.Store(holder{rec: rec}) }

// Default returns the process-wide recorder, or nil when none is set.
func Default() Recorder {
	if h, ok := defaultRecorder.Load().(holder); ok {
		return h.rec
	}
	return nil
}

// ctxKey is the context key for a request-scoped recorder.
type ctxKey struct{}

// NewContext returns a copy of ctx carrying rec. The facade exposes this
// as WithRecorder.
func NewContext(ctx context.Context, rec Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the recorder stored in ctx, or nil.
func FromContext(ctx context.Context) Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(ctxKey{}).(Recorder)
	return rec
}

// From resolves the recorder for a context-carrying entry point: the
// context's recorder if present, else the process default, else nil.
// Hot paths call this once on entry and thread the result through their
// loops.
func From(ctx context.Context) Recorder {
	if rec := FromContext(ctx); rec != nil {
		return rec
	}
	return Default()
}

// Tee fans every event out to each non-nil recorder. It returns nil when
// no recorder remains (keeping the disabled fast path), and the recorder
// itself when exactly one remains (no fan-out indirection).
func Tee(recs ...Recorder) Recorder {
	var live multiRecorder
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiRecorder []Recorder

func (m multiRecorder) Count(name string, delta int64) {
	for _, r := range m {
		r.Count(name, delta)
	}
}

func (m multiRecorder) Gauge(name string, v float64) {
	for _, r := range m {
		r.Gauge(name, v)
	}
}

func (m multiRecorder) Observe(name string, iter int, v float64) {
	for _, r := range m {
		r.Observe(name, iter, v)
	}
}

func (m multiRecorder) Histogram(name string, seconds float64) {
	for _, r := range m {
		r.Histogram(name, seconds)
	}
}

func (m multiRecorder) StartSpan(name string, id, parent SpanID) func() {
	ends := make([]func(), len(m))
	for i, r := range m {
		ends[i] = r.StartSpan(name, id, parent)
	}
	return func() {
		// Close in reverse order so nesting semantics match defer.
		for i := len(ends) - 1; i >= 0; i-- {
			ends[i]()
		}
	}
}
