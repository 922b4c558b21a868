package chaos_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiclust/internal/core"
	"multiclust/internal/jobs"
	"multiclust/internal/jobs/chaos"
)

// TestStreamPropertyAppendsRaceCancelAndDrain is the streaming half of
// the fault battery, run under -race in the chaos CI lane: concurrent
// goroutines hammer chunk appends at a mixed fleet of streaming jobs —
// counting controls, pushes that stall until cut, handles that panic
// mid-stream — while cancels land on a subset and a graceful drain ends
// the run. Properties asserted:
//
//   - exactly one terminal state per admitted job (FinishCalls counts 1);
//   - a drained open stream surfaces its last snapshot with
//     "partial": true;
//   - no acknowledged chunk is lost: for every non-cancelled counting
//     job, the terminal snapshot's rows_seen equals the rows whose
//     appends were acknowledged (cancelled jobs may only undershoot);
//   - a panicking handle fails its job with a contained ErrPanic and
//     the worker pool survives.
func TestStreamPropertyAppendsRaceCancelAndDrain(t *testing.T) {
	e := jobs.New(jobs.Config{Workers: 4, QueueSize: 256, Streams: chaos.StreamFaults()})

	type tracked struct {
		j     *jobs.Job
		acked atomic.Int64 // rows whose Append returned nil
	}
	var fleet []*tracked
	admit := func(spec jobs.Spec) *tracked {
		t.Helper()
		j, _, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %+v: %v", spec, err)
		}
		tr := &tracked{j: j}
		tr.acked.Store(int64(len(spec.Points)))
		fleet = append(fleet, tr)
		return tr
	}

	var instant, cancelled []*tracked
	for i := 0; i < 6; i++ {
		instant = append(instant, admit(jobs.Spec{
			Algo: "chaos-stream-instant", Stream: true, Seed: int64(i),
		}))
	}
	var slow []*tracked
	for i := 0; i < 3; i++ {
		// The 30ms per-chunk budget is what cuts the stalled push loose.
		slow = append(slow, admit(jobs.Spec{
			Algo: "chaos-stream-slow", Stream: true, Seed: int64(i), TimeoutMS: 30,
		}))
	}
	var panicky []*tracked
	for i := 0; i < 3; i++ {
		// First chunk at submit; the handle panics on the second.
		panicky = append(panicky, admit(jobs.Spec{
			Algo: "chaos-stream-panic", Stream: true, Seed: int64(i), Points: points(),
		}))
	}

	// Appenders: four goroutines spraying chunks round-robin, so every
	// job sees appends racing its own chunk processing and terminal
	// transition. Rejected appends (conflict after a fault, draining)
	// are simply not acknowledged.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tr := fleet[(g+i)%len(fleet)]
				if _, err := e.Append(tr.j.ID, points(), false); err == nil {
					tr.acked.Add(int64(len(points())))
				}
			}
		}(g)
	}
	// Cancels racing the append storm on two of the counting jobs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tr := range instant[:2] {
			if _, err := e.Cancel(tr.j.ID); err != nil {
				t.Errorf("Cancel %s: %v", tr.j.ID, err)
			}
			cancelled = append(cancelled, tr)
		}
	}()
	wg.Wait()

	rep := drainOrDie(t, e, 30*time.Second)
	if rep.Truncated {
		t.Fatalf("drain should settle gracefully, got %+v", rep)
	}

	// Exactly one terminal state per admitted job.
	for _, tr := range fleet {
		if !tr.j.State().Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", tr.j.ID, tr.j.State())
		}
		if n := tr.j.FinishCalls(); n != 1 {
			t.Fatalf("job %s finishCalls = %d, want 1", tr.j.ID, n)
		}
	}

	isCancelled := func(tr *tracked) bool {
		for _, c := range cancelled {
			if c == tr {
				return true
			}
		}
		return false
	}
	for _, tr := range instant {
		st := tr.j.Status()
		if isCancelled(tr) {
			if st.State != "cancelled" {
				t.Fatalf("cancelled job %s state = %s", tr.j.ID, st.State)
			}
			if st.Result != nil && st.Result.Stats["rows_seen"] > float64(tr.acked.Load()) {
				t.Fatalf("job %s snapshot outran its acks: %+v vs %d", tr.j.ID, st.Result, tr.acked.Load())
			}
			continue
		}
		// Open stream at drain: partial surface with the last snapshot,
		// and every acknowledged chunk accounted for.
		if st.State != "partial" || !st.Partial || st.Result == nil {
			t.Fatalf("drained stream %s status = %+v, want partial with a snapshot", tr.j.ID, st)
		}
		if got, want := st.Result.Stats["rows_seen"], float64(tr.acked.Load()); got != want {
			t.Fatalf("job %s lost acknowledged rows: snapshot %v, acked %v", tr.j.ID, got, want)
		}
	}
	for _, tr := range panicky {
		if tr.j.State() != jobs.StateFailed || !errors.Is(tr.j.Err(), core.ErrPanic) {
			t.Fatalf("panicking stream %s state = %s err = %v, want failed/ErrPanic", tr.j.ID, tr.j.State(), tr.j.Err())
		}
	}
	for _, tr := range slow {
		// A stalled push is cut by its per-chunk deadline before it ever
		// produces a snapshot: interrupted-without-best settles Cancelled
		// (or Partial if a snapshot sneaked in via the drain sweep).
		if s := tr.j.State(); s != jobs.StateCancelled && s != jobs.StatePartial {
			t.Fatalf("slow stream %s state = %s, want cancelled or partial", tr.j.ID, s)
		}
	}
}
