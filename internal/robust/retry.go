package robust

import (
	"context"
	"errors"
	"fmt"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// attempts is the reseed budget of Retry: a degenerate fit runs on seeds
// s, s+1 and s+2 before the schedule gives up.
const attempts = 3

// Retry runs fn on the deterministic seed schedule seed, seed+1, seed+2 and
// returns on the first attempt whose error is nil or not a degenerate
// outcome (errors.Is ErrDegenerate), together with that attempt's value.
// Attempt 0 uses the caller's original seed, so a run that succeeds first
// try is byte-identical with or without Retry. Attempts follow each other
// without a wait: each re-runs a deterministic fit on the next seed, so
// waiting would change no outcome.
//
// Each degenerate outcome counts robust.degenerate_retries on ctx's
// recorder (obs.From). A ctx that is done between attempts ends the
// schedule with an error wrapping both ErrInterrupted and the last
// degenerate error; exhaustion returns the zero value and an error naming
// the seed range and wrapping ErrDegenerate.
//
// The schedule is part of the determinism contract: identical inputs and
// seed produce the identical attempt sequence regardless of worker count.
func Retry[T any](ctx context.Context, seed int64, fn func(seed int64) (T, error)) (T, error) {
	var zero T
	var err error
	for a := int64(0); a < attempts; a++ {
		if a > 0 && ctx.Err() != nil {
			return zero, fmt.Errorf("robust: interrupted before attempt %d (seed %d): %w (last: %w)",
				a, seed+a, core.ErrInterrupted, err)
		}
		var out T
		out, err = fn(seed + a)
		if err == nil || !errors.Is(err, core.ErrDegenerate) {
			return out, err
		}
		// Cold path: only degenerate outcomes reach here, so the success
		// path reads no recorder.
		obs.From(ctx).Count("robust.degenerate_retries", 1)
	}
	return zero, fmt.Errorf("robust: %d attempts with seeds %d..%d all degenerate: %w",
		attempts, seed, seed+attempts-1, err)
}
