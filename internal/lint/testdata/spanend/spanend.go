// Fixture for the spanend analyzer: every span-open must have its end
// function deferred, called on every return path, or handed off.
package fixture

import (
	"context"
	"errors"

	"multiclust/internal/obs"
)

// ---- clean idioms the rule must accept ----

func deferredImmediately(c *obs.Collector) {
	defer c.StartSpan("fixture.op", obs.NewSpanID(), 0)()
}

func deferredVariable(ctx context.Context, rec obs.Recorder) {
	_, end := obs.SpanCtx(ctx, rec, "fixture.op")
	defer end()
}

func immediateInvoke(c *obs.Collector) {
	c.StartSpan("fixture.op", obs.NewSpanID(), 0)() // opens and closes on the spot
}

func calledOnEveryPath(c *obs.Collector, fail bool) error {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0)
	if fail {
		end()
		return errors.New("fixture")
	}
	end()
	return nil
}

func calledBeforeFallOff(c *obs.Collector) {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0)
	end()
}

// Escapes are assumed managed by the receiver.
func escapeAsReturn(c *obs.Collector) func() {
	return c.StartSpan("fixture.op", obs.NewSpanID(), 0)
}

func escapeAsArg(c *obs.Collector) {
	runThenEnd(c.StartSpan("fixture.op", obs.NewSpanID(), 0))
}

func runThenEnd(end func()) { end() }

func escapeViaClosure(c *obs.Collector) func() {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0)
	return func() { end() }
}

// ---- leaks the rule must flag ----

func statementDiscard(c *obs.Collector) {
	c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `result of Collector.StartSpan is discarded`
}

func blankAssign(ctx context.Context, rec obs.Recorder) context.Context {
	lctx, _ := obs.SpanCtx(ctx, rec, "fixture.op") // want `end function of obs.SpanCtx assigned to the blank identifier`
	return lctx
}

func deferOpenNotEnd(c *obs.Collector) {
	defer c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `defer Collector.StartSpan\(\.\.\.\) discards the span end function`
}

func neverCalled(c *obs.Collector) {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `end function "end" of Collector.StartSpan is never deferred or called`
	_ = end                                              // blank re-assignment is not a close
}

func missingReturnPath(c *obs.Collector, fail bool) error {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `not called on every return path \(the path through line 81 leaks the span\)`
	if fail {
		return errors.New("fixture") // leaks the span
	}
	end()
	return nil
}

func conditionalFallOff(c *obs.Collector, fail bool) {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `not called on every return path \(the path through line 92 leaks the span\)`
	if !fail {
		end()
	} // falling off the end with fail=true leaks the span
}

func methodDiscard(rec obs.Recorder) {
	rec.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `result of Recorder.StartSpan is discarded`
}

// ---- shapes decided on the CFG's paths ----

// Both arms of an if/else close the span: every path is covered.
func calledInBothBranches(c *obs.Collector, fail bool) (n int) {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0)
	if fail {
		n = 1
		end()
	} else {
		end()
	}
	return n
}

// Every case of a switch with a default closes the span.
func calledInEveryCase(c *obs.Collector, mode int) int {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0)
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
func panicPath(c *obs.Collector, bad bool) {
	end := c.StartSpan("fixture.op", obs.NewSpanID(), 0) // want `not called on every return path \(the path through line 131 leaks the span\)`
	if bad {
		panic("fixture")
	}
	end()
}
