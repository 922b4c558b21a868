package robust

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// errDegenerate is an attempt outcome Retry must retry.
var errDegenerate = fmt.Errorf("singular: %w", core.ErrDegenerate)

func TestRetrySeedSchedule(t *testing.T) {
	var seeds []int64
	v, err := Retry(context.Background(), 7, func(s int64) (int64, error) {
		seeds = append(seeds, s)
		if s < 9 {
			return 0, errDegenerate
		}
		return s, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("Retry should succeed on the third attempt with its value: v=%d err=%v", v, err)
	}
	if fmt.Sprint(seeds) != "[7 8 9]" {
		t.Fatalf("seed schedule %v, want [7 8 9]", seeds)
	}
}

func TestRetryFirstAttemptUsesOriginalSeed(t *testing.T) {
	var first int64 = -1
	_, _ = Retry(context.Background(), 42, func(s int64) (int, error) {
		if first == -1 {
			first = s
		}
		return 0, nil
	})
	if first != 42 {
		t.Fatalf("first attempt seed = %d, want 42", first)
	}
}

func TestRetryNonDegenerateErrorStops(t *testing.T) {
	calls := 0
	sentinel := errors.New("hard failure")
	_, err := Retry(context.Background(), 0, func(int64) (int, error) {
		calls++
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("non-degenerate error must not be retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	calls := 0
	_, err := Retry(context.Background(), 3, func(int64) (int, error) {
		calls++
		return 0, core.ErrDegenerate
	})
	if calls != 3 || !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	if !strings.Contains(err.Error(), "seeds 3..5") {
		t.Fatalf("exhaustion error should name the seed range: %v", err)
	}
}

func TestRetryValue(t *testing.T) {
	v, err := Retry(context.Background(), 0, func(s int64) (int, error) {
		if s == 0 {
			return 0, core.ErrDegenerate
		}
		return int(s) * 10, nil
	})
	if err != nil || v != 10 {
		t.Fatalf("v=%d err=%v, want 10 nil", v, err)
	}
}

func TestRetrySeedScheduleUnchanged(t *testing.T) {
	// The historic contract: seeds walk seed, seed+1, seed+2 with no
	// waiting, and exhaustion reports the full range.
	var seeds []int64
	_, err := Retry(context.Background(), 7, func(seed int64) (int, error) {
		seeds = append(seeds, seed)
		return 0, errDegenerate
	})
	if fmt.Sprint(seeds) != "[7 8 9]" {
		t.Fatalf("seeds %v, want [7 8 9]", seeds)
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
	wantMsg := "robust: 3 attempts with seeds 7..9 all degenerate"
	if got := err.Error(); !strings.HasPrefix(got, wantMsg) {
		t.Fatalf("error %q, want prefix %q", got, wantMsg)
	}
}

func TestRetryValueBackoffReturnsValueOnNonDegenerateError(t *testing.T) {
	// Interrupted algorithms return best-so-far alongside the error; the
	// retry wrapper must pass that pair through untouched, at once.
	calls := 0
	v, err := Retry(context.Background(), 1, func(int64) (int, error) {
		calls++
		return 41, fmt.Errorf("cut short: %w", core.ErrInterrupted)
	})
	if v != 41 || calls != 1 {
		t.Fatalf("value = %d after %d calls, want the best-so-far 41 after 1", v, calls)
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

func TestRetryValueBackoffZeroOnExhaustion(t *testing.T) {
	v, err := Retry(context.Background(), 1, func(int64) (int, error) {
		return 99, errDegenerate
	})
	if v != 0 {
		t.Fatalf("value = %d, want zero after exhaustion", v)
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want ErrDegenerate, got %v", err)
	}
}

// A ctx that is done between attempts ends the schedule: no further
// attempt runs, the value is zero, and the error carries both the cut and
// the last degenerate outcome.
func TestRetryBackoffInterruptedDuringWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	v, err := Retry(ctx, 10, func(int64) (int, error) {
		calls++
		cancel() // the cut lands between attempt 0 and attempt 1
		return 5, errDegenerate
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after the cut)", calls)
	}
	if v != 0 {
		t.Fatalf("value = %d, want zero", v)
	}
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted in %v", err)
	}
	if !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want the last degenerate error preserved in %v", err)
	}
}

// A ctx already done before the schedule starts still runs attempt 0 (its
// own fit observes the ctx), then stops instead of reseeding.
func TestRetryBackoffCtxHonouredByDefaultSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Retry(ctx, 1, func(int64) (int, error) {
		calls++
		return 0, errDegenerate
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, core.ErrInterrupted) || !errors.Is(err, core.ErrDegenerate) {
		t.Fatalf("want ErrInterrupted and ErrDegenerate, got %v", err)
	}
}

// valueCounter is a context that counts Value lookups, i.e. recorder reads.
type valueCounter struct {
	context.Context
	n int
}

func (c *valueCounter) Value(key any) any {
	c.n++
	return c.Context.Value(key)
}

// The success path never waits, reads no recorder and allocates nothing.
func TestRetryBackoffFirstAttemptNeverWaits(t *testing.T) {
	ctx := &valueCounter{Context: context.Background()}
	fn := func(s int64) (int64, error) { return s, nil }
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := Retry(ctx, 3, fn); v != 3 || err != nil {
			t.Fatalf("v=%d err=%v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("success path allocates %v times per call, want 0", allocs)
	}
	if ctx.n != 0 {
		t.Fatalf("success path read the context %d times, want 0", ctx.n)
	}
}

// Degenerate retries count on the caller's context recorder, not on the
// process default.
func TestRetryCountsOnContextRecorder(t *testing.T) {
	a, b := obs.NewCollector(), obs.NewCollector()
	prev := obs.Default()
	obs.SetDefault(b)
	defer obs.SetDefault(prev)
	ctx := obs.NewContext(context.Background(), a)
	v, err := Retry(ctx, 0, func(s int64) (int64, error) {
		if s == 0 {
			return 0, errDegenerate
		}
		return s, nil
	})
	if v != 1 || err != nil {
		t.Fatalf("v=%d err=%v, want 1 nil", v, err)
	}
	if got := a.Counter("robust.degenerate_retries"); got != 1 {
		t.Errorf("context recorder counted %d retries, want 1", got)
	}
	if got := b.Counter("robust.degenerate_retries"); got != 0 {
		t.Errorf("default recorder counted %d retries, want 0", got)
	}
}
