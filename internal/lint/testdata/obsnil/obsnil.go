// Fixture for the obsnil analyzer: direct obs.Recorder method calls must
// go through the nil-guarded package helpers.
package fixture

import (
	"context"
	"os"

	"multiclust/internal/obs"
)

// Direct interface calls are flagged even under a nil guard: the guard is
// easy to forget at the next call site, and the helper costs nothing.
func direct(rec obs.Recorder, n int) {
	rec.Count("fixture.items", int64(n)) // want `direct Count call on an obs.Recorder`
	rec.Gauge("fixture.load", 0.5)       // want `direct Gauge call on an obs.Recorder`
	rec.Histogram("fixture.wait", 0.001) // want `direct Histogram call on an obs.Recorder`
	if rec != nil {
		rec.Observe("fixture.err", 1, 0.25)                     // want `direct Observe call on an obs.Recorder`
		done := rec.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `direct StartSpan call on an obs.Recorder; use the nil-guarded obs.SpanCtx helper`
		defer done()
	}
}

// The nil-guarded helpers are the approved route.
func guarded(ctx context.Context, rec obs.Recorder, n int) {
	obs.Count(rec, "fixture.items", int64(n))
	obs.Gauge(rec, "fixture.load", 0.5)
	obs.Observe(rec, "fixture.err", 1, 0.25)
	obs.Histogram(rec, "fixture.wait", 0.001)
	_, end := obs.SpanCtx(ctx, rec, "fixture.op")
	defer end()
}

// Resolving through context or the process default still ends in helpers.
func resolved(n int) {
	rec := obs.Default()
	obs.Count(rec, "fixture.resolved", int64(n))
}

// Concrete sink types are provably non-nil at the call site; calling them
// directly is how the sinks are driven.
func sinks() error {
	c := obs.NewCollector()
	c.Count("fixture.items", 3)
	c.Reset()
	tw := obs.NewTraceWriter(os.Stdout)
	tw.Gauge("fixture.load", 0.5)
	return tw.Err()
}

// An unrelated interface that happens to share a method name is not the
// Recorder; flagging it would outlaw ordinary polymorphism.
type counter interface {
	Count(name string, delta int64)
}

func unrelated(c counter) {
	c.Count("fixture.other", 1)
}
