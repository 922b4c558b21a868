package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"multiclust/internal/core"
	"multiclust/internal/obs"
)

// Small deterministic fault runners local to the package tests; the full
// battery lives in the chaos subpackage (which imports jobs and therefore
// cannot be imported from here).

func instantRunner(_ context.Context, spec Spec) (*Outcome, error) {
	return &Outcome{Labels: make([]int, len(spec.Points)), K: 1}, nil
}

// slowRunner signals started (when non-nil) and blocks until the context is
// cut, then returns a best-so-far outcome wrapped in ErrInterrupted like the
// facade algorithms do.
func slowRunner(started chan<- struct{}) Runner {
	return func(ctx context.Context, spec Spec) (*Outcome, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-ctx.Done()
		return &Outcome{Labels: make([]int, len(spec.Points)), K: 1},
			fmt.Errorf("slow: %w", core.ErrInterrupted)
	}
}

func panickyRunner(context.Context, Spec) (*Outcome, error) {
	panic("injected")
}

func testPoints() [][]float64 {
	return [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}}
}

// newTestEngine builds an engine with the given fault runners merged in and
// registers a bounded drain as test cleanup.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(func() {
		// A short deadline is enough: tests that leave a blocked slow job
		// behind rely on the truncation path to cut it to best-so-far.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		e.Drain(ctx)
	})
	return e
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state (state %s)", j.ID, j.State())
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, Runners: map[string]Runner{"instant": instantRunner}})
	j, dup, err := e.Submit(Spec{Algo: "instant", Points: testPoints(), Seed: 1})
	if err != nil || dup {
		t.Fatalf("Submit: dup=%v err=%v", dup, err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s, want done (err %v)", j.State(), j.Err())
	}
	if r := j.Result(); r == nil || len(r.Labels) != 4 {
		t.Fatalf("result = %+v, want 4 labels", r)
	}
	if j.FinishCalls() != 1 {
		t.Fatalf("finishCalls = %d, want 1", j.FinishCalls())
	}
	st := j.Status()
	if st.State != "done" || st.Partial || st.Error != "" {
		t.Fatalf("status = %+v", st)
	}
}

func TestDeadlineYieldsPartialBestSoFar(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"slow": slowRunner(nil)}})
	j, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 30})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j)
	if j.State() != StatePartial {
		t.Fatalf("state = %s, want partial (err %v)", j.State(), j.Err())
	}
	if !errors.Is(j.Err(), core.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted preserved", j.Err())
	}
	if j.Result() == nil {
		t.Fatal("partial job lost its best-so-far result")
	}
	st := j.Status()
	if !st.Partial || st.State != "partial" || st.Result == nil {
		t.Fatalf("status = %+v, want partial with result", st)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"slow": slowRunner(started)}})
	j, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if _, err := e.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, j)
	if j.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State())
	}
	if j.FinishCalls() != 1 {
		t.Fatalf("finishCalls = %d, want 1", j.FinishCalls())
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	started := make(chan struct{}, 1)
	e := newTestEngine(t, Config{Workers: 1, QueueSize: 4, Runners: map[string]Runner{
		"slow":    slowRunner(started),
		"instant": instantRunner,
	}})
	blocker, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started // the single worker is now occupied
	queued, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if state, err := e.Cancel(queued.ID); err != nil || state != StateCancelled {
		t.Fatalf("Cancel queued: state=%s err=%v", state, err)
	}
	waitTerminal(t, queued)
	if queued.Result() != nil {
		t.Fatal("queued-cancelled job has a result; it must never have run")
	}
	if _, err := e.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	waitTerminal(t, blocker)
	// Cancelling an already-terminal job is a no-op, not a second finish.
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatalf("re-Cancel: %v", err)
	}
	if queued.FinishCalls() != 1 {
		t.Fatalf("finishCalls = %d after double cancel, want 1", queued.FinishCalls())
	}
}

func TestQueueFullRejects(t *testing.T) {
	started := make(chan struct{}, 1)
	e := newTestEngine(t, Config{Workers: 1, QueueSize: 2, Runners: map[string]Runner{
		"slow":    slowRunner(started),
		"instant": instantRunner,
	}})
	if _, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); err != nil {
			t.Fatalf("Submit fill %d: %v", i, err)
		}
	}
	if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if err := e.Ready(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Ready during saturation = %v, want ErrQueueFull", err)
	}
}

func TestIdempotencyKeyDeduplicates(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, Runners: map[string]Runner{"instant": instantRunner}})
	spec := Spec{Algo: "instant", Points: testPoints(), IdempotencyKey: "abc"}
	j1, dup1, err := e.Submit(spec)
	if err != nil || dup1 {
		t.Fatalf("first Submit: dup=%v err=%v", dup1, err)
	}
	j2, dup2, err := e.Submit(spec)
	if err != nil || !dup2 {
		t.Fatalf("second Submit: dup=%v err=%v", dup2, err)
	}
	if j1.ID != j2.ID {
		t.Fatalf("idempotent submits produced different jobs: %s vs %s", j1.ID, j2.ID)
	}
	waitTerminal(t, j1)
	// The key keeps resolving after the job is terminal.
	j3, dup3, err := e.Submit(spec)
	if err != nil || !dup3 || j3.ID != j1.ID {
		t.Fatalf("post-terminal Submit: id=%s dup=%v err=%v", j3.ID, dup3, err)
	}
}

func TestPanicContainedWorkerSurvives(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{
		"boom":    panickyRunner,
		"instant": instantRunner,
	}})
	j, _, err := e.Submit(Spec{Algo: "boom", Points: testPoints()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j)
	if j.State() != StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if !errors.Is(j.Err(), core.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", j.Err())
	}
	// The single worker must have survived the panic to run this one.
	j2, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitTerminal(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("post-panic job state = %s, want done", j2.State())
	}
}

func TestValidationRejects(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	cases := []Spec{
		{Algo: "no-such-algo", Points: testPoints()},
		{Algo: "kmeans"}, // empty dataset
		{Algo: "kmeans", Points: [][]float64{{1, 2}, {3}}},    // ragged
		{Algo: "kmeans", Points: testPoints(), TimeoutMS: -1}, // negative timeout
		{Algo: "kmeans", Points: testPoints(), K: -2},         // negative k
	}
	for i, spec := range cases {
		if _, _, err := e.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d: want ErrBadSpec, got %v", i, err)
		}
	}
	if _, err := e.Get("j-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: want ErrNotFound, got %v", err)
	}
	if _, err := e.Cancel("j-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown: want ErrNotFound, got %v", err)
	}
}

func TestMaxPointsBound(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxPoints: 3})
	if _, _, err := e.Submit(Spec{Algo: "kmeans", Points: testPoints()}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("want ErrBadSpec for oversized dataset, got %v", err)
	}
}

func TestDrainCompletesQueuedWork(t *testing.T) {
	e := New(Config{Workers: 1, QueueSize: 8, Runners: map[string]Runner{"instant": instantRunner}})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints(), Seed: int64(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := e.Drain(ctx)
	if rep.Truncated {
		t.Fatal("instant jobs truncated the drain")
	}
	if rep.Done != 5 {
		t.Fatalf("drain report %+v, want done=5", rep)
	}
	for _, j := range jobs {
		if j.State() != StateDone || j.FinishCalls() != 1 {
			t.Fatalf("job %s: state=%s finishCalls=%d", j.ID, j.State(), j.FinishCalls())
		}
	}
	if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: want ErrDraining, got %v", err)
	}
	if err := e.Ready(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ready after drain = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCutsSlowJobsToBestSoFar(t *testing.T) {
	started := make(chan struct{}, 1)
	e := New(Config{Workers: 1, QueueSize: 8, Runners: map[string]Runner{"slow": slowRunner(started)}})
	running, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000})
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	<-started
	queued, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep := e.Drain(ctx)
	if !rep.Truncated {
		t.Fatal("drain of a stuck job did not report truncation")
	}
	// Both jobs settled: the running one cut mid-flight, the queued one
	// swept as the worker reached it. Both carried a best-so-far outcome,
	// so both land in partial.
	for _, j := range []*Job{running, queued} {
		if !j.State().Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", j.ID, j.State())
		}
		if j.FinishCalls() != 1 {
			t.Fatalf("job %s finishCalls = %d, want 1", j.ID, j.FinishCalls())
		}
	}
	if rep.Done+rep.Partial+rep.Failed+rep.Cancelled != 2 {
		t.Fatalf("drain report %+v does not account for 2 jobs", rep)
	}
	if running.State() != StatePartial {
		t.Fatalf("running job state = %s, want partial", running.State())
	}
}

func TestPerJobCollectorIsolation(t *testing.T) {
	// Two concurrent jobs record into their own collectors; counters must
	// not bleed between them.
	rec := func(ctx context.Context, spec Spec) (*Outcome, error) {
		obs.From(ctx).Count("test.work", int64(spec.K))
		return &Outcome{Labels: make([]int, len(spec.Points)), K: 1}, nil
	}
	e := newTestEngine(t, Config{Workers: 2, Runners: map[string]Runner{"rec": rec}})
	j1, _, err := e.Submit(Spec{Algo: "rec", Points: testPoints(), K: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2, _, err := e.Submit(Spec{Algo: "rec", Points: testPoints(), K: 7})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	if got := j1.Status().Metrics["test.work"]; got != 3 {
		t.Fatalf("job 1 test.work = %d, want 3", got)
	}
	if got := j2.Status().Metrics["test.work"]; got != 7 {
		t.Fatalf("job 2 test.work = %d, want 7", got)
	}
}

func TestListOrdersByAdmission(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, Runners: map[string]Runner{"instant": instantRunner}})
	var ids []string
	for i := 0; i < 12; i++ {
		j, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
		waitTerminal(t, j)
	}
	got := e.List()
	if len(got) != len(ids) {
		t.Fatalf("List returned %d jobs, want %d", len(got), len(ids))
	}
	for i, st := range got {
		if st.ID != ids[i] {
			t.Fatalf("List[%d] = %s, want %s (admission order)", i, st.ID, ids[i])
		}
	}
}

func TestRealKMeansJobEndToEnd(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	j, _, err := e.Submit(Spec{Algo: "kmeans", Points: testPoints(), K: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s (err %v), want done", j.State(), j.Err())
	}
	r := j.Result()
	if r == nil || r.K != 2 || len(r.Labels) != 4 {
		t.Fatalf("result = %+v, want k=2 over 4 points", r)
	}
	if r.Labels[0] != r.Labels[1] || r.Labels[2] != r.Labels[3] || r.Labels[0] == r.Labels[2] {
		t.Fatalf("labels %v do not separate the two blobs", r.Labels)
	}
	if r.Stats["sse"] < 0 || r.Stats["iterations"] < 1 {
		t.Fatalf("stats %v implausible", r.Stats)
	}
}

// TestRealDegenerateJobRunsOnce: a job whose algorithm collapses is run
// once by the engine. EM's reseed on seeds 7, 8 and 9 is the only retry,
// so an em job's collector holds three fits and three
// robust.degenerate_retries, and the error names one seed range. A
// spectral job's embedding does not depend on the seed: it fails after
// one fit with no k-means, no retry and no seed range.
func TestRealDegenerateJobRunsOnce(t *testing.T) {
	pts := [][]float64{{1e200, 1e200}, {-1e200, -1e200}, {1e200, -1e200}, {-1e200, 1e200}, {1e200, 1e200}, {-1e200, -1e200}}
	e := newTestEngine(t, Config{Workers: 1})
	for _, tc := range []struct {
		algo, span  string
		fits, retry int64
		seeds       string // the one seed range the error names; "" for none
	}{
		{"em", "em.fit", 3, 3, "seeds 7..9"},
		{"spectral", "spectral.run", 1, 0, ""},
	} {
		algo, span := tc.algo, tc.span
		j, _, err := e.Submit(Spec{Algo: algo, Points: pts, K: 2, Seed: 7})
		if err != nil {
			t.Fatalf("Submit %s: %v", algo, err)
		}
		waitTerminal(t, j)
		if j.State() != StateFailed || !errors.Is(j.Err(), core.ErrDegenerate) {
			t.Fatalf("%s: state %s err %v, want failed with ErrDegenerate", algo, j.State(), j.Err())
		}
		spans := j.col.Snapshot().Spans
		st := j.Status()
		if spans[span].Count != tc.fits || spans["jobs.run"].Count != 1 {
			t.Errorf("%s: %d %s spans under %d jobs.run, want %d under 1", algo, spans[span].Count, span, spans["jobs.run"].Count, tc.fits)
		}
		if got := spans["kmeans.run"].Count; algo == "spectral" && got != 0 {
			t.Errorf("%s: %d kmeans.run spans, want none on a non-finite embedding", algo, got)
		}
		if got := st.Metrics["robust.degenerate_retries"]; got != tc.retry || st.Attempts != 1 {
			t.Errorf("%s: robust.degenerate_retries %d attempts %d, want %d and 1", algo, got, st.Attempts, tc.retry)
		}
		want := 0
		if tc.seeds != "" {
			want = 1
		}
		if msg := j.Err().Error(); strings.Count(msg, "seeds ") != want || !strings.Contains(msg, tc.seeds) {
			t.Errorf("%s: err %q, want %d seed range %q", algo, msg, want, tc.seeds)
		}
	}
}
