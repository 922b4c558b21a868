package jobs

import (
	"context"
	"errors"
	"testing"

	"multiclust/internal/core"
	"multiclust/internal/registry"
)

// emptyLearner snapshots to a result with no clustering.
type emptyLearner struct{}

func (emptyLearner) Push(context.Context, [][]float64) error { return nil }
func (emptyLearner) Snapshot(context.Context) (*registry.Result, error) {
	return &registry.Result{}, nil
}

// TestEmptyResults: a batch run that yields no clustering fails on its
// first attempt — it is not degenerate, so the engine does not reseed —
// while a streaming snapshot with no clustering reports ErrDegenerate.
func TestEmptyResults(t *testing.T) {
	empty := registry.Algorithm{
		Name: "empty",
		Run: func(context.Context, registry.Params) (*registry.Result, error) {
			return &registry.Result{}, nil
		},
		Stream: func(registry.Params) (registry.Learner, error) { return emptyLearner{}, nil },
	}
	e := newTestEngine(t, Config{
		Workers: 1,
		Runners: map[string]Runner{"empty": batchRunner(empty)},
		Streams: map[string]StreamFactory{"empty": streamFactory(empty)},
	})
	j, _, err := e.Submit(Spec{Algo: "empty", Points: testPoints()})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if st := j.Status(); st.State != "failed" || st.Attempts != 1 || errors.Is(j.Err(), core.ErrDegenerate) {
		t.Fatalf("batch: status %+v err %v, want failed after 1 attempt, not degenerate", st, j.Err())
	}
	j, _, err = e.Submit(Spec{Algo: "empty", Stream: true, Points: testPoints()})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.State() != StateFailed || !errors.Is(j.Err(), core.ErrDegenerate) {
		t.Fatalf("stream: state %s err %v, want failed with ErrDegenerate", j.State(), j.Err())
	}
}
