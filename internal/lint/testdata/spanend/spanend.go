// Fixture for the spanend analyzer: every span-open must have its end
// function deferred, called on every return path, or handed off.
package fixture

import (
	"context"
	"errors"

	"multiclust/internal/obs"
)

// ---- clean idioms the rule must accept ----

func deferredImmediately(rec obs.Recorder) {
	defer obs.Span(rec, "fixture.op")()
}

func deferredVariable(ctx context.Context, rec obs.Recorder) {
	_, end := obs.SpanCtx(ctx, rec, "fixture.op")
	defer end()
}

func immediateInvoke(rec obs.Recorder) {
	obs.Span(rec, "fixture.op")() // opens and closes on the spot
}

func calledOnEveryPath(rec obs.Recorder, fail bool) error {
	end := obs.Span(rec, "fixture.op")
	if fail {
		end()
		return errors.New("fixture")
	}
	end()
	return nil
}

func calledBeforeFallOff(rec obs.Recorder) {
	end := obs.Span(rec, "fixture.op")
	end()
}

// Escapes are assumed managed by the receiver.
func escapeAsReturn(rec obs.Recorder) func() {
	return obs.Span(rec, "fixture.op")
}

func escapeAsArg(rec obs.Recorder) {
	runThenEnd(obs.Span(rec, "fixture.op"))
}

func runThenEnd(end func()) { end() }

func escapeViaClosure(rec obs.Recorder) func() {
	end := obs.Span(rec, "fixture.op")
	return func() { end() }
}

func sinkDeferred(c *obs.Collector) {
	defer c.StartSpan("fixture.op", obs.NewSpanID(), 0)()
}

// ---- leaks the rule must flag ----

func statementDiscard(rec obs.Recorder) {
	obs.Span(rec, "fixture.op") // want `result of obs.Span is discarded`
}

func blankAssign(ctx context.Context, rec obs.Recorder) context.Context {
	lctx, _ := obs.SpanCtx(ctx, rec, "fixture.op") // want `end function of obs.SpanCtx assigned to the blank identifier`
	return lctx
}

func deferOpenNotEnd(rec obs.Recorder) {
	defer obs.Span(rec, "fixture.op") // want `defer obs.Span\(\.\.\.\) discards the span end function`
}

func neverCalled(rec obs.Recorder) {
	end := obs.Span(rec, "fixture.op") // want `end function "end" of obs.Span is never deferred or called`
	_ = end                            // blank re-assignment is not a close
}

func missingReturnPath(rec obs.Recorder, fail bool) error {
	end := obs.Span(rec, "fixture.op") // want `not called on every return path \(the path through line 85 leaks the span\)`
	if fail {
		return errors.New("fixture") // leaks the span
	}
	end()
	return nil
}

func conditionalFallOff(rec obs.Recorder, fail bool) {
	end := obs.Span(rec, "fixture.op") // want `not called on every return path \(the path through line 96 leaks the span\)`
	if !fail {
		end()
	} // falling off the end with fail=true leaks the span
}

func methodDiscard(rec obs.Recorder) {
	rec.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `result of Recorder.StartSpan is discarded`
}

// ---- shapes decided on the CFG's paths ----

// Both arms of an if/else close the span: every path is covered.
func calledInBothBranches(rec obs.Recorder, fail bool) (n int) {
	end := obs.Span(rec, "fixture.op")
	if fail {
		n = 1
		end()
	} else {
		end()
	}
	return n
}

// Every case of a switch with a default closes the span.
func calledInEveryCase(rec obs.Recorder, mode int) int {
	end := obs.Span(rec, "fixture.op")
	switch mode {
	case 0:
		end()
		return 0
	case 1:
		end()
	default:
		end()
	}
	return mode
}

// A panic between the open and the close leaves without closing the span.
func panicPath(rec obs.Recorder, bad bool) {
	end := obs.Span(rec, "fixture.op") // want `not called on every return path \(the path through line 135 leaks the span\)`
	if bad {
		panic("fixture")
	}
	end()
}
