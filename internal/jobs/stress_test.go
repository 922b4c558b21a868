package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"multiclust"
	"multiclust/internal/obs"
)

// TestConcurrentSubmitDeterministicPerJob floods the engine from many
// goroutines and then replays every job solo: same spec, same seed must give
// byte-identical labels and identical per-job work counters no matter what
// the other tenants were doing. This is the multi-tenant determinism
// contract, and under -race it doubles as the engine's data-race probe.
func TestConcurrentSubmitDeterministicPerJob(t *testing.T) {
	ds, _, _ := multiclust.FourBlobToy(1, 20)
	e := newTestEngine(t, Config{Workers: 4, QueueSize: 64})

	const n = 16
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := e.Submit(Spec{
				Algo: "kmeans", Points: ds.Points, K: 2 + i%3, Seed: int64(100 + i), Restarts: 2,
			})
			jobs[i], errs[i] = j, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for _, j := range jobs {
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s state = %s (err %v), want done", j.ID, j.State(), j.Err())
		}
	}

	// Solo replay: each job's labels and its recorded iteration count must
	// match a run of the same spec with the whole process to itself.
	for i, j := range jobs {
		col := obs.NewCollector()
		ctx := obs.NewContext(context.Background(), col)
		res, err := multiclust.KMeansContext(ctx, ds.Points, multiclust.KMeansConfig{
			K: 2 + i%3, Seed: int64(100 + i), Restarts: 2,
		})
		if err != nil {
			t.Fatalf("solo replay %d: %v", i, err)
		}
		got := j.Result()
		if got == nil || len(got.Labels) != len(res.Clustering.Labels) {
			t.Fatalf("job %d result shape mismatch", i)
		}
		for p := range got.Labels {
			if got.Labels[p] != res.Clustering.Labels[p] {
				t.Fatalf("job %d label[%d] = %d, solo run got %d — concurrency leaked into the result",
					i, p, got.Labels[p], res.Clustering.Labels[p])
			}
		}
		soloIters := col.Snapshot().Counters["kmeans.iterations"]
		jobIters := j.Status().Metrics["kmeans.iterations"]
		if soloIters != jobIters {
			t.Fatalf("job %d recorded %d kmeans iterations, solo run %d — per-job collectors are cross-talking",
				i, jobIters, soloIters)
		}
	}
}

// TestConcurrentSubmitPollCancel races submissions against polls and
// cancellations; the assertions are the structural invariants (exactly one
// terminal state, no lost jobs), with -race watching the memory model.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	ds, _, _ := multiclust.FourBlobToy(2, 15)
	started := make(chan struct{}, 64)
	e := newTestEngine(t, Config{Workers: 3, QueueSize: 64, Runners: map[string]Runner{
		"slow": slowRunner(started),
	}})

	const n = 24
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			algo := "kmeans"
			timeout := int64(0)
			if i%3 == 0 {
				algo, timeout = "slow", 60000
			}
			j, _, err := e.Submit(Spec{Algo: algo, Points: ds.Points, K: 2, Seed: int64(i), TimeoutMS: timeout})
			if err != nil {
				return // queue-full under stress is legitimate backpressure
			}
			jobs[i] = j
			if algo == "slow" {
				// Immediately race a cancel against the start.
				if _, cerr := e.Cancel(j.ID); cerr != nil {
					panic(fmt.Sprintf("Cancel(%s): %v", j.ID, cerr))
				}
			}
			for k := 0; k < 5; k++ {
				_ = j.Status()
				_ = e.List()
			}
		}(i)
	}
	wg.Wait()

	// Drain the start signals so no slow runner stays blocked on the
	// unread channel (cancelled-while-queued jobs never signal).
	for {
		select {
		case <-started:
			continue
		default:
		}
		break
	}

	admitted := 0
	for _, j := range jobs {
		if j == nil {
			continue
		}
		admitted++
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s stuck in %s", j.ID, j.State())
		}
		if !j.State().Terminal() {
			t.Fatalf("job %s done-channel closed but state %s not terminal", j.ID, j.State())
		}
		if j.FinishCalls() != 1 {
			t.Fatalf("job %s finishCalls = %d, want exactly 1", j.ID, j.FinishCalls())
		}
	}
	if admitted == 0 {
		t.Fatal("no job was admitted at all")
	}
	if got := len(e.List()); got != admitted {
		t.Fatalf("engine lists %d jobs, %d were admitted — a job was lost", got, admitted)
	}
}
