// Package obs is multiclust's observability layer: counters, gauges,
// per-iteration observations, latency histograms and timed spans,
// recorded into one in-memory *Collector.
//
// The design contract is zero cost when disabled. A nil *Collector is the
// disabled recorder: its recording methods (Count, Gauge, Observe,
// Histogram) and SpanCtx return at once on it. Each method is an
// inlinable nil test around an unexported body and takes only concrete
// argument types, so the disabled path is a single pointer test with no
// interface boxing and no allocation — pinned by
// TestNilRecorderPathDoesNotAllocate and the obs_bench_test.go benchmarks
// at the repository root. Call sites need no guard of their own.
//
// Determinism: counters are additive and series entries carry their own
// iteration index, so the recorded totals are scheduling-independent even
// when hot paths run under internal/parallel with any worker count. Only
// span durations are wall-clock-dependent; the Collector's Snapshot
// exposes them separately so deterministic comparisons can zero them out.
//
// Resolution order mirrors internal/parallel's worker-count idiom: an
// explicit collector in the context (NewContext / facade WithRecorder)
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

// SpanID identifies one live span instance for parent/child attribution.
// Ids are process-unique (drawn from NewSpanID); 0 means "no span" and is
// never returned by NewSpanID.
type SpanID uint64

var spanIDs atomic.Uint64

// NewSpanID returns the next process-unique span instance id (never 0).
func NewSpanID() SpanID { return SpanID(spanIDs.Add(1)) }

// noopEnd is the shared span terminator for the disabled path, so
// SpanCtx(ctx, nil, ...) never allocates a closure.
var noopEnd = func() {}

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

// SpanCtx opens a named span in c as a child of the span carried by ctx
// and returns a derived context (carrying the new span id, for deeper
// nesting) plus the end function. It also applies runtime/pprof
// goroutine labels — algo is the span name up to its last dot, phase the
// part after it — so CPU profile samples taken inside the span are
// attributable to the algorithm phase; the end function restores the
// caller's labels. Goroutines spawned inside the span (internal/parallel
// workers) inherit the labels automatically. When c is nil it returns
// ctx unchanged and a shared no-op end — zero allocations, preserving
// the disabled-path contract.
func SpanCtx(ctx context.Context, c *Collector, name string) (context.Context, func()) {
	if c == nil {
		return ctx, noopEnd
	}
	if ctx == nil {
		ctx = context.Background()
	}
	id := NewSpanID()
	end := c.startSpan(name, id, SpanFromContext(ctx))
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

var defaultCollector atomic.Pointer[Collector]

// SetDefault installs c as the process-wide collector consulted by hot
// paths that have no context. Pass nil to disable. Safe for concurrent
// use, but the deterministic-dump guarantee assumes the collector is not
// swapped mid-run.
func SetDefault(c *Collector) { defaultCollector.Store(c) }

// Default returns the process-wide collector, or nil when none is set.
func Default() *Collector { return defaultCollector.Load() }

// ctxKey is the context key for a request-scoped collector.
type ctxKey struct{}

// NewContext returns a copy of ctx carrying c. The facade exposes this
// as WithRecorder.
func NewContext(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the collector stored in ctx, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// From resolves the collector for a context-carrying entry point: the
// context's collector if present, else the process default, else nil.
// Hot paths call this once on entry and thread the result through their
// loops.
func From(ctx context.Context) *Collector {
	if c := FromContext(ctx); c != nil {
		return c
	}
	return Default()
}
