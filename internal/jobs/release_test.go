package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"multiclust/internal/core"
)

// trackedRows returns n×d rows cut from one flat array, the way the
// request decoder cuts a body's rows, and a channel that closes once the
// garbage collector has freed that array. Two well-separated blobs keep a
// k=2 fit well posed.
func trackedRows(n, d int) ([][]float64, <-chan struct{}) {
	flat := make([]float64, n*d)
	rows := make([][]float64, n)
	for i := range rows {
		row := flat[i*d : (i+1)*d : (i+1)*d]
		for c := range row {
			row[c] = float64(10*(i%2)+c) + 0.01*float64(i)
		}
		rows[i] = row
	}
	released := make(chan struct{})
	runtime.SetFinalizer(&flat[0], func(*float64) { close(released) })
	return rows, released
}

// waitReleased collects garbage until the tracked array is freed, and
// fails if something still reaches it. The engine and job stay reachable
// meanwhile, so the array is freed because they let go of it.
func waitReleased(t *testing.T, released <-chan struct{}, e *Engine, j *Job) {
	t.Helper()
	defer runtime.KeepAlive(e)
	defer runtime.KeepAlive(j)
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("the rows are still reachable after the job ended")
}

// submitTracked submits spec with tracked rows as its points. Only the job
// and the channel outlive the call, so the test itself holds no rows.
func submitTracked(t *testing.T, e *Engine, spec Spec) (*Job, <-chan struct{}) {
	t.Helper()
	rows, released := trackedRows(8, 2)
	spec.Points = rows
	j, _, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j, released
}

// appendTracked appends tracked rows to stream id.
func appendTracked(t *testing.T, e *Engine, id string, final bool) <-chan struct{} {
	t.Helper()
	rows, released := trackedRows(8, 2)
	if _, err := e.Append(id, rows, final); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return released
}

func wantState(t *testing.T, j *Job, s State) {
	t.Helper()
	waitTerminal(t, j)
	if j.State() != s {
		t.Fatalf("state = %s, want %s (err %v)", j.State(), s, j.Err())
	}
}

// keepHandle is a learner that keeps every chunk it is pushed, as the
// streaming meta ensemble keeps its window's rows: what it holds is freed
// only with the handle. With discard set it keeps none, as the streaming
// k-means keeps only its centers. With started set, its first push
// signals and then blocks until its context ends.
type keepHandle struct {
	discard bool
	started chan<- struct{}
	kept    [][][]float64
	rows    int
}

func (h *keepHandle) PushChunk(ctx context.Context, rows [][]float64) error {
	if h.started != nil {
		h.started <- struct{}{}
		h.started = nil
		<-ctx.Done()
		return fmt.Errorf("keep: %w", core.ErrInterrupted)
	}
	if !h.discard {
		h.kept = append(h.kept, rows)
	}
	h.rows += len(rows)
	return nil
}

func (h *keepHandle) Snapshot(context.Context) (*Outcome, error) {
	return &Outcome{K: 1, Stats: map[string]float64{"rows_seen": float64(h.rows)}}, nil
}

// TestReleaseBatchPoints: a batch job's dataset is freed at its terminal
// transition, whichever terminal state it reaches.
func TestReleaseBatchPoints(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1})
		j, released := submitTracked(t, e, Spec{Algo: "kmeans", K: 2, Seed: 1})
		wantState(t, j, StateDone)
		waitReleased(t, released, e, j)
	})
	t.Run("failed", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"boom": panickyRunner}})
		j, released := submitTracked(t, e, Spec{Algo: "boom"})
		wantState(t, j, StateFailed)
		waitReleased(t, released, e, j)
	})
	t.Run("partial", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"slow": slowRunner(nil)}})
		j, released := submitTracked(t, e, Spec{Algo: "slow", TimeoutMS: 30})
		wantState(t, j, StatePartial)
		waitReleased(t, released, e, j)
	})
	t.Run("cancelled while queued", func(t *testing.T) {
		started := make(chan struct{}, 1)
		e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{
			"slow":    slowRunner(started),
			"instant": instantRunner,
		}})
		if _, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000}); err != nil {
			t.Fatalf("Submit blocker: %v", err)
		}
		<-started // the only worker is busy, so the next job stays queued
		j, released := submitTracked(t, e, Spec{Algo: "instant"})
		if _, err := e.Cancel(j.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		wantState(t, j, StateCancelled)
		// The queue still holds the job's token; the rows go regardless.
		waitReleased(t, released, e, j)
	})
	t.Run("cancelled while running", func(t *testing.T) {
		started := make(chan struct{}, 1)
		e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"slow": slowRunner(started)}})
		j, released := submitTracked(t, e, Spec{Algo: "slow", TimeoutMS: 60000})
		<-started
		if _, err := e.Cancel(j.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		wantState(t, j, StateCancelled)
		waitReleased(t, released, e, j)
	})
}

// TestReleaseStreamRows: a terminal stream frees its opening rows, every
// chunk it was sent, pushed or not, and the learner with what it kept; an
// open one frees each chunk once it is pushed.
func TestReleaseStreamRows(t *testing.T) {
	keep := map[string]StreamFactory{"keep": func(Spec) (StreamHandle, error) { return &keepHandle{}, nil }}
	t.Run("pushed chunk of an open stream", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 2, Streams: map[string]StreamFactory{
			"discard": func(Spec) (StreamHandle, error) { return &keepHandle{discard: true}, nil },
		}})
		j, _, err := e.Submit(Spec{Algo: "discard", Stream: true})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		released := appendTracked(t, e, j.ID, false)
		waitRowsSeen(t, j, 8)
		waitReleased(t, released, e, j)
		if j.State() != StateRunning {
			t.Fatalf("state = %s, want the stream still open", j.State())
		}
	})
	t.Run("opened with points", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 2, Streams: keep})
		j, released := submitTracked(t, e, Spec{Algo: "keep", Stream: true})
		if _, err := e.Append(j.ID, nil, true); err != nil {
			t.Fatalf("close: %v", err)
		}
		wantState(t, j, StateDone)
		waitReleased(t, released, e, j)
	})
	t.Run("final chunk", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 2, Streams: keep})
		j, _, err := e.Submit(Spec{Algo: "keep", Stream: true})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		released := appendTracked(t, e, j.ID, true)
		wantState(t, j, StateDone)
		if out := j.Result(); out == nil || out.Stats["rows_seen"] != 8 {
			t.Fatalf("result = %+v, want the final chunk's 8 rows seen", out)
		}
		waitReleased(t, released, e, j)
	})
	t.Run("cancelled with chunks pending", func(t *testing.T) {
		started := make(chan struct{}, 1)
		e := newTestEngine(t, Config{Workers: 2, Streams: map[string]StreamFactory{
			"block": func(Spec) (StreamHandle, error) { return &keepHandle{started: started}, nil },
		}})
		j, _, err := e.Submit(Spec{Algo: "block", Stream: true, Points: testPoints(), TimeoutMS: 60000})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-started // the opening chunk's push holds the claim
		released := appendTracked(t, e, j.ID, false)
		if _, err := e.Cancel(j.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		wantState(t, j, StateCancelled)
		waitReleased(t, released, e, j)
	})
	t.Run("open stream drained", func(t *testing.T) {
		e := New(Config{Workers: 2, Streams: keep})
		j, released := submitTracked(t, e, Spec{Algo: "keep", Stream: true})
		waitRowsSeen(t, j, 8)
		if rep := e.Drain(context.Background()); rep.Partial != 1 {
			t.Fatalf("drain report %+v, want 1 partial", rep)
		}
		wantState(t, j, StatePartial)
		waitReleased(t, released, e, j)
	})
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestReleaseRetainedHeapPerJob: what a terminal job retains does not
// grow with its dataset. Each job here sends 1000×16 rows, 152,000 bytes
// with their slice headers, and keeps 1000 labels, 8,000 bytes.
func TestReleaseRetainedHeapPerJob(t *testing.T) {
	const jobs, n, d = 1000, 1000, 16
	e := newTestEngine(t, Config{Workers: 2, Runners: map[string]Runner{"instant": instantRunner}})
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		flat := make([]float64, n*d)
		rows := make([][]float64, n)
		for r := range rows {
			rows[r] = flat[r*d : (r+1)*d : (r+1)*d]
		}
		j, _, err := e.Submit(Spec{Algo: "instant", Points: rows})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, j)
	}
	per := (liveHeap() - before) / jobs
	t.Logf("retained %d bytes per terminal job", per)
	if per > 16<<10 {
		t.Fatalf("each terminal job retains %d bytes, want at most 16 KiB", per)
	}
}

// gateRunner finishes each run once gate is closed.
func gateRunner(gate <-chan struct{}) Runner {
	return func(_ context.Context, spec Spec) (*Outcome, error) {
		<-gate
		return &Outcome{Labels: make([]int, len(spec.Points)), K: 1}, nil
	}
}

// TestIdempotencyResubmitRacesTerminal: retries of a keyed spec racing
// its job's terminal transition all deduplicate onto that job. Under
// -race it checks the duplicate path reads nothing finish writes.
func TestIdempotencyResubmitRacesTerminal(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"gate": gateRunner(gate)}})
	spec := Spec{Algo: "gate", Points: testPoints(), Seed: 7, IdempotencyKey: "race"}
	orig, _, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	const workers, retries = 8, 50
	var ready, wg sync.WaitGroup
	ready.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			retry := spec
			retry.Points = testPoints() // equal values, another array
			ready.Done()
			for i := 0; i < retries; i++ {
				j, dup, err := e.Submit(retry)
				if err != nil || !dup || j != orig {
					t.Errorf("retry %d: dup=%v err=%v", i, dup, err)
					return
				}
			}
		}()
	}
	ready.Wait()
	close(gate)
	wg.Wait()
	wantState(t, orig, StateDone)
}

// TestIdempotencyRetryAfterRelease: once the original job has finished
// and released its points, a retry gets the answer reflect.DeepEqual on
// the two specs gives: 200 with the original id and trace id when they
// are equal (-0 and 0 are), 409 when they differ (nil and empty do).
func TestIdempotencyRetryAfterRelease(t *testing.T) {
	const kmeans = `{"algo":"kmeans","k":2,"seed":3,"points":[[0,0],[0,1],[10,10],[10,11]]}`
	const stream = `{"algo":"keep","stream":true,"points":%s}`
	cases := []struct {
		name, first, retry string
		want               int
	}{
		{"same spec", kmeans, kmeans, http.StatusOK},
		{"last coordinate changed", kmeans, strings.Replace(kmeans, "11]]", "11.5]]", 1), http.StatusConflict},
		{"-0 equals 0", kmeans, strings.Replace(kmeans, "[[0,0]", "[[-0,0]", 1), http.StatusOK},
		{"row dropped", kmeans, strings.Replace(kmeans, ",[10,11]]", "]", 1), http.StatusConflict},
		{"stream null twice", fmt.Sprintf(stream, "null"), fmt.Sprintf(stream, "null"), http.StatusOK},
		{"stream null versus empty", fmt.Sprintf(stream, "null"), fmt.Sprintf(stream, "[]"), http.StatusConflict},
		{"stream empty versus null", fmt.Sprintf(stream, "[]"), fmt.Sprintf(stream, "null"), http.StatusConflict},
	}
	e, srv := newTracedServer(t, Config{Workers: 2, Streams: map[string]StreamFactory{
		"keep": func(Spec) (StreamHandle, error) { return &keepHandle{}, nil },
	}})
	post := func(body, key, traceparent string) (*http.Response, submitResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		req.Header.Set("Idempotency-Key", key)
		req.Header.Set("traceparent", traceparent)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("do: %v", err)
		}
		defer resp.Body.Close()
		var sub submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp, sub
	}
	for i, c := range cases {
		key := fmt.Sprintf("release-%d", i)
		resp, first := post(c.first, key, testTraceParent)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: first submit = %d", c.name, resp.StatusCode)
		}
		j, err := e.Get(first.ID)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if j.Spec.Stream {
			if _, err := e.Append(j.ID, nil, true); err != nil {
				t.Fatalf("%s: close: %v", c.name, err)
			}
		}
		wantState(t, j, StateDone)
		resp, retry := post(c.retry, key, "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-00f067aa0ba902b7-01")
		if resp.StatusCode != c.want {
			t.Fatalf("%s: retry = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if c.want == http.StatusOK && (!retry.Duplicate || retry.ID != first.ID || retry.TraceID != testTraceID) {
			t.Fatalf("%s: retry answered %+v, want a duplicate of %s with trace id %s", c.name, retry, first.ID, testTraceID)
		}
	}
}

// TestTerminalJobsStillServed: after 300 jobs have finished, every id
// still answers its status, span tree and trace, as the benchmark client
// reads them.
func TestTerminalJobsStillServed(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	spec := Spec{Algo: "kmeans", Points: testPoints(), K: 2}
	ids := make([]string, 300)
	for i := range ids {
		spec.Seed = int64(i)
		resp, body := postJSON(t, srv, "/v1/jobs", spec, nil)
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d %s (%v)", i, resp.StatusCode, body, err)
		}
		ids[i] = sub.ID
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			_, body := do(t, srv, http.MethodGet, "/v1/jobs/"+sub.ID)
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("status %s: %v", body, err)
			}
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished: %+v", sub.ID, st)
			}
		}
	}
	for _, id := range ids {
		resp, body := do(t, srv, http.MethodGet, "/v1/jobs/"+id)
		var st Status
		if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.Result == nil || len(st.Result.Labels) != 4 {
			t.Fatalf("GET %s = %d %s (%v), want done with 4 labels", id, resp.StatusCode, body, err)
		}
		for _, sub := range []string{"/spans", "/trace"} {
			if resp, body := do(t, srv, http.MethodGet, "/v1/jobs/"+id+sub); resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Fatalf("GET %s%s = %d %q, want 200 with a body", id, sub, resp.StatusCode, body)
			}
		}
	}
}
