// Fixture for the spanend analyzer: every span-open must have its end
// function deferred, called on every return path, or handed off.
package fixture

import (
	"context"
	"errors"

	"multiclust"
	"multiclust/internal/obs"
)

// ---- clean idioms the rule must accept ----

func deferredVariable(ctx context.Context, c *obs.Collector) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
	defer end()
}

func deferredFacade(ctx context.Context) context.Context {
	ctx, end := multiclust.StartSpan(ctx, "fixture.op")
	defer end()
	return ctx
}

func calledOnEveryPath(ctx context.Context, c *obs.Collector, fail bool) error {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
	if fail {
		end()
		return errors.New("fixture")
	}
	end()
	return nil
}

func calledBeforeFallOff(ctx context.Context, c *obs.Collector) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
	end()
}

// Escapes are assumed managed by the receiver.
func escapeAsReturn(ctx context.Context, c *obs.Collector) (context.Context, func()) {
	return obs.SpanCtx(ctx, c, "fixture.op")
}

func escapeAsArg(ctx context.Context, c *obs.Collector) {
	runThenEnd(obs.SpanCtx(ctx, c, "fixture.op"))
}

func runThenEnd(_ context.Context, end func()) { end() }

func escapeViaClosure(ctx context.Context, c *obs.Collector) func() {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
	return func() { end() }
}

// ---- leaks the rule must flag ----

func statementDiscard(ctx context.Context, c *obs.Collector) {
	obs.SpanCtx(ctx, c, "fixture.op") // want `result of obs.SpanCtx is discarded`
}

func blankAssign(ctx context.Context, c *obs.Collector) context.Context {
	lctx, _ := obs.SpanCtx(ctx, c, "fixture.op") // want `end function of obs.SpanCtx assigned to the blank identifier`
	return lctx
}

func deferOpenNotEnd(ctx context.Context, c *obs.Collector) {
	defer obs.SpanCtx(ctx, c, "fixture.op") // want `defer obs.SpanCtx\(\.\.\.\) discards the span end function — open the span first: ctx, end := obs.SpanCtx\(\.\.\.\); defer end\(\)`
}

func deferFacadeOpen(ctx context.Context) {
	defer multiclust.StartSpan(ctx, "fixture.op") // want `open the span first: ctx, end := multiclust.StartSpan\(\.\.\.\); defer end\(\)`
}

func neverCalled(ctx context.Context, c *obs.Collector) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op") // want `end function "end" of obs.SpanCtx is never deferred or called`
	_ = end                                     // blank re-assignment is not a close
}

func missingReturnPath(ctx context.Context, c *obs.Collector, fail bool) error {
	_, end := obs.SpanCtx(ctx, c, "fixture.op") // want `not called on every return path \(the path through line 84 leaks the span\)`
	if fail {
		return errors.New("fixture") // leaks the span
	}
	end()
	return nil
}

func conditionalFallOff(ctx context.Context, c *obs.Collector, fail bool) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op") // want `not called on every return path \(the path through line 95 leaks the span\)`
	if !fail {
		end()
	} // falling off the end with fail=true leaks the span
}

// ---- shapes decided on the CFG's paths ----

// Both arms of an if/else close the span: every path is covered.
func calledInBothBranches(ctx context.Context, c *obs.Collector, fail bool) (n int) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
	if fail {
		n = 1
		end()
	} else {
		end()
	}
	return n
}

// Every case of a switch with a default closes the span.
func calledInEveryCase(ctx context.Context, c *obs.Collector, mode int) int {
	_, end := obs.SpanCtx(ctx, c, "fixture.op")
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
func panicPath(ctx context.Context, c *obs.Collector, bad bool) {
	_, end := obs.SpanCtx(ctx, c, "fixture.op") // want `not called on every return path \(the path through line 130 leaks the span\)`
	if bad {
		panic("fixture")
	}
	end()
}
