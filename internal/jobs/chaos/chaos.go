// Package chaos is the service-layer fault-injection harness for the job
// engine: synthetic runners that panic, degenerate, stall, or finish
// instantly, injected through jobs.Config.Runners. The property tests built
// on them assert the engine's resilience invariants — no panic escapes a
// worker or handler, every admitted job reaches exactly one terminal
// state, 429 appears iff the bounded queue is full, and graceful drain
// loses no admitted job.
//
// Like the dataset corrupters in internal/robust/chaos, every fault here
// is deterministic: a runner's behavior is a pure function of the spec it
// is handed — Flaky draws from a seeded hash of the job seed — so any
// chaos failure replays from its spec alone.
package chaos

import (
	"context"
	"fmt"
	"math/rand"

	"multiclust/internal/core"
	"multiclust/internal/jobs"
)

// Instant returns a runner that succeeds immediately with a tiny fixed
// outcome — the control group, and the bench harness's dispatch-overhead
// probe.
func Instant() jobs.Runner {
	return func(_ context.Context, spec jobs.Spec) (*jobs.Outcome, error) {
		labels := make([]int, len(spec.Points))
		return &jobs.Outcome{Labels: labels, K: 1}, nil
	}
}

// Panicky returns a runner that panics with msg on every run. The
// engine must contain it: the job fails with an error wrapping ErrPanic
// and the worker pool keeps serving.
func Panicky(msg string) jobs.Runner {
	return func(context.Context, jobs.Spec) (*jobs.Outcome, error) {
		panic(msg)
	}
}

// Degenerate returns a runner that reports core.ErrDegenerate on every
// run. The engine runs a job once, so the job fails with that error.
func Degenerate() jobs.Runner {
	return func(_ context.Context, spec jobs.Spec) (*jobs.Outcome, error) {
		return nil, fmt.Errorf("chaos: injected degenerate fit for seed %d: %w", spec.Seed, core.ErrDegenerate)
	}
}

// Slow returns a runner that signals onStart (when non-nil), then blocks
// until its context is cancelled — by deadline, DELETE, or drain — and
// returns a best-so-far outcome wrapped in core.ErrInterrupted, exactly as
// the facade's ...Context algorithms do. It is the canonical stuck-job and
// drain-deadline probe.
func Slow(onStart chan<- string) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (*jobs.Outcome, error) {
		if onStart != nil {
			onStart <- spec.Algo
		}
		<-ctx.Done()
		labels := make([]int, len(spec.Points))
		for i := range labels {
			labels[i] = core.Noise // nothing was clustered before the cut
		}
		return &jobs.Outcome{Labels: labels, K: 0, Noise: len(labels)},
			fmt.Errorf("chaos: slow job cut short: %w", core.ErrInterrupted)
	}
}

// Flaky returns a runner that fails with a plain error on the
// deterministic fraction p of job seeds, and succeeds on the rest. The
// decision hashes the job seed through a seeded RNG: same spec, same
// verdict, every run.
func Flaky(p float64) jobs.Runner {
	return func(_ context.Context, spec jobs.Spec) (*jobs.Outcome, error) {
		rng := rand.New(rand.NewSource(spec.Seed))
		if rng.Float64() < p {
			return nil, fmt.Errorf("chaos: injected hard failure for seed %d", spec.Seed)
		}
		labels := make([]int, len(spec.Points))
		return &jobs.Outcome{Labels: labels, K: 1}, nil
	}
}

// TestRunners is the registry the CLI mounts when
// MULTICLUST_JOBS_TESTRUNNERS=1: the standard fault battery under stable
// names, for integration tests driving a real multiclust -serve process.
func TestRunners() map[string]jobs.Runner {
	return map[string]jobs.Runner{
		"chaos-instant":    Instant(),
		"chaos-panic":      Panicky("injected worker panic"),
		"chaos-degenerate": Degenerate(),
		"chaos-slow":       Slow(nil),
		"chaos-flaky":      Flaky(0.5),
	}
}
