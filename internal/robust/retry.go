package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// Backoff is a deterministic wait schedule between degenerate-fit retry
// attempts: exponential growth from Base with seeded jitter. The zero value
// waits nothing between attempts — exactly the historic Retry behavior — so
// existing callers are unaffected.
//
// Determinism contract: Delay is a pure function of (Backoff, retry index).
// The jitter is drawn from a rand.Rand seeded with Seed+retry, never from
// wall-clock or global entropy, so two runs with the same schedule sleep the
// same durations in the same order (pinned by the detsource lint rule).
// Only the *waiting* itself touches real time, and that is injectable via
// Sleep so tests run instantly.
type Backoff struct {
	// Base is the delay before the first retry (attempt 1). Zero or
	// negative disables waiting entirely.
	Base time.Duration
	// Factor multiplies the delay per further retry; values below 1
	// default to 2 (plain exponential doubling).
	Factor float64
	// Max caps every individual delay; zero means no cap.
	Max time.Duration
	// Jitter is the fraction of each delay drawn as a symmetric random
	// perturbation: delay *= 1 + Jitter*u with u uniform in [-1, 1).
	// Values are clamped to [0, 1].
	Jitter float64
	// Seed seeds the jitter sequence (retry r perturbs with Seed+r).
	Seed int64
	// Sleep replaces the real wait when non-nil, so tests can record the
	// schedule and return immediately. The default waits on a timer and
	// aborts early when the context fires.
	Sleep func(time.Duration)
}

// Delay returns the wait before the given retry (1-based; retry 0 — the
// original attempt — never waits). It is deterministic: same receiver and
// index, same duration, on every run and platform.
func (b Backoff) Delay(retry int) time.Duration {
	if b.Base <= 0 || retry <= 0 {
		return 0
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	d := float64(b.Base) * math.Pow(f, float64(retry-1))
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if j := math.Min(math.Max(b.Jitter, 0), 1); j > 0 {
		rng := rand.New(rand.NewSource(b.Seed + int64(retry)))
		d *= 1 + j*(2*rng.Float64()-1)
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(d)
}

// sleep waits Delay-style for d, honouring ctx. The injectable Sleep hook
// (tests) is called unconditionally; the default path selects between a
// timer and ctx.Done so a cancelled job never serves out a backoff.
func (b Backoff) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if b.Sleep != nil {
		b.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryBackoff runs fn up to budget times on the deterministic seed schedule
// seed, seed+1, ..., seed+budget-1, waiting b.Delay(attempt) between
// attempts, and returns on the first attempt whose error is nil or not a
// degenerate outcome (errors.Is ErrDegenerate). Attempt 0 uses the caller's
// original seed and never waits, so a run that succeeds first try is
// byte-identical with or without the wrapper. A context that fires during a
// backoff wait aborts the schedule with an error wrapping both
// ErrInterrupted and the last degenerate error.
func RetryBackoff(ctx context.Context, seed int64, budget int, b Backoff, fn func(seed int64) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget < 1 {
		budget = 1
	}
	var err error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			if serr := b.sleep(ctx, b.Delay(attempt)); serr != nil {
				return fmt.Errorf("robust: backoff interrupted before attempt %d (seed %d): %w (last: %w)",
					attempt, seed+int64(attempt), core.ErrInterrupted, err)
			}
		}
		err = fn(seed + int64(attempt))
		if err == nil || !errors.Is(err, core.ErrDegenerate) {
			return err
		}
		// Cold path: only degenerate outcomes reach here, so the recorder
		// lookup costs nothing on the success path.
		obs.Count(obs.Default(), "robust.degenerate_retries", 1)
	}
	return fmt.Errorf("robust: %d attempts with seeds %d..%d all degenerate: %w",
		budget, seed, seed+int64(budget-1), err)
}

// RetryValueBackoff is RetryBackoff for functions that produce a value
// alongside the error. On total failure (or an interrupted backoff) it
// returns the zero value and the wrapped last error.
func RetryValueBackoff[T any](ctx context.Context, seed int64, budget int, b Backoff, fn func(seed int64) (T, error)) (T, error) {
	var out T
	err := RetryBackoff(ctx, seed, budget, b, func(s int64) error {
		var e error
		out, e = fn(s)
		return e
	})
	if err != nil && errors.Is(err, core.ErrDegenerate) {
		var zero T
		return zero, err
	}
	return out, err
}

// Retry runs fn up to budget times with the deterministic seed schedule
// seed, seed+1, ..., seed+budget-1, returning on the first attempt whose
// error is nil or is not a degenerate outcome (errors.Is ErrDegenerate).
// Attempt 0 uses the caller's original seed, so a run that succeeds first
// try is byte-identical with or without Retry. The last attempt's error is
// returned if every attempt degenerates. Attempts follow each other
// immediately (the zero Backoff); use RetryBackoff to wait between them.
//
// The schedule is part of the determinism contract: identical inputs and
// seed produce the identical attempt sequence regardless of worker count.
func Retry(seed int64, budget int, fn func(seed int64) error) error {
	return RetryBackoff(context.Background(), seed, budget, Backoff{}, fn)
}

// RetryValue is Retry for functions that produce a value alongside the
// error. On total failure it returns the zero value and the wrapped last
// error.
func RetryValue[T any](seed int64, budget int, fn func(seed int64) (T, error)) (T, error) {
	return RetryValueBackoff(context.Background(), seed, budget, Backoff{}, fn)
}
