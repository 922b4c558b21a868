package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiclust/internal/obs"
	"multiclust/internal/ops"
)

const testTraceParent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// newTracedServer mounts the engine's handler behind the ops Instrument
// middleware, the same stack the CLI serves, so the traceparent header
// actually reaches the submit path via the request context.
func newTracedServer(t *testing.T, cfg Config) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, cfg)
	srv := httptest.NewServer(ops.Instrument(e.Handler(), nil))
	t.Cleanup(srv.Close)
	return e, srv
}

// chromeTrace mirrors the shape WriteChromeTrace emits, for assertions.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceEndToEnd is the acceptance path from the issue: submit with a
// W3C traceparent, see the same trace id echoed on X-Trace-Id and carried
// by the job, and retrieve a Chrome trace whose events all bear that id.
func TestTraceEndToEnd(t *testing.T) {
	e, srv := newTracedServer(t, Config{Workers: 2, Runners: map[string]Runner{"instant": instantRunner}})
	resp, body := postJSON(t, srv, "/v1/jobs",
		Spec{Algo: "instant", Points: testPoints(), Seed: 3},
		map[string]string{"traceparent": testTraceParent})
	if resp.StatusCode != 202 {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != testTraceID {
		t.Fatalf("X-Trace-Id = %q, want the traceparent's trace id %q", got, testTraceID)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if sub.TraceID != testTraceID {
		t.Fatalf("submit response trace_id = %q, want %q", sub.TraceID, testTraceID)
	}
	if got := resp.Header.Get("X-Job-Id"); got != sub.ID {
		t.Fatalf("X-Job-Id = %q, want %q", got, sub.ID)
	}

	j, err := e.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("job state = %s, want done (err %v)", j.State(), j.Err())
	}

	// The job's status surface reports the trace id for its whole
	// lifetime, and /spans leads with it.
	if st := j.Status(); st.TraceID != testTraceID {
		t.Fatalf("status trace_id = %q, want %q", st.TraceID, testTraceID)
	}
	resp, body = do(t, srv, "GET", "/v1/jobs/"+sub.ID+"/spans")
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "trace_id "+testTraceID+"\n") {
		t.Fatalf("/spans = %d:\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "jobs.run") {
		t.Fatalf("/spans missing the jobs.run span:\n%s", body)
	}

	resp, body = do(t, srv, "GET", "/v1/jobs/"+sub.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("/trace status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("/trace Content-Type = %q", ct)
	}
	var tr chromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("/trace is not valid JSON: %v\n%s", err, body)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("/trace has no events:\n%s", body)
	}
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d (%s): ph = %q, want X", i, ev.Name, ev.Ph)
		}
		if got, _ := ev.Args["trace_id"].(string); got != testTraceID {
			t.Errorf("event %d (%s): args.trace_id = %q, want %q", i, ev.Name, got, testTraceID)
		}
	}
}

// An untraced submission still records spans and serves a trace — its
// events simply carry no trace id — so the retrieval surface does not
// depend on callers adopting trace propagation.
func TestTraceWithoutTraceParent(t *testing.T) {
	e, srv := newTracedServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	// Bypass the middleware entirely: submit straight through the engine.
	j, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	resp, body := do(t, srv, "GET", "/v1/jobs/"+j.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("/trace status = %d: %s", resp.StatusCode, body)
	}
	var tr chromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("untraced job has no span events")
	}
	for i, ev := range tr.TraceEvents {
		if _, present := ev.Args["trace_id"]; present {
			t.Errorf("event %d carries a trace_id on an untraced job", i)
		}
	}
}

// /trace refuses with 409 while the job is still running: the stream is
// only complete and immutable once the job is terminal.
func TestTraceConflictUntilTerminal(t *testing.T) {
	started := make(chan struct{}, 1)
	e, srv := newTracedServer(t, Config{Workers: 1, Runners: map[string]Runner{"slow": slowRunner(started)}})
	j, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	resp, body := do(t, srv, "GET", "/v1/jobs/"+j.ID+"/trace")
	if resp.StatusCode != 409 {
		t.Fatalf("/trace on a running job = %d, want 409: %s", resp.StatusCode, body)
	}
	waitTerminal(t, j)
	resp, _ = do(t, srv, "GET", "/v1/jobs/"+j.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("/trace after terminal = %d, want 200", resp.StatusCode)
	}

	resp, _ = do(t, srv, "GET", "/v1/jobs/nope/trace")
	if resp.StatusCode != 404 {
		t.Fatalf("/trace on unknown job = %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, srv, "DELETE", "/v1/jobs/"+j.ID+"/trace")
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("DELETE /trace = %d (Allow %q), want 405 with Allow: GET",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// A duplicate idempotent submission reports the ORIGINAL job's trace id —
// its telemetry is the one that exists — regardless of the retry's header.
func TestDuplicateSubmitKeepsOriginalTraceID(t *testing.T) {
	_, srv := newTracedServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	spec := Spec{Algo: "instant", Points: testPoints(), Seed: 5, IdempotencyKey: "k-1"}
	resp, body := postJSON(t, srv, "/v1/jobs", spec, map[string]string{"traceparent": testTraceParent})
	if resp.StatusCode != 202 {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, body)
	}
	retry, body := postJSON(t, srv, "/v1/jobs", spec, map[string]string{
		"traceparent": "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-00f067aa0ba902b7-01",
	})
	if retry.StatusCode != 200 {
		t.Fatalf("duplicate submit = %d: %s", retry.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Duplicate || sub.TraceID != testTraceID {
		t.Fatalf("duplicate response = %+v, want duplicate with original trace id %s", sub, testTraceID)
	}
}

// TestLogSchemaJobEvents pins the job.state JSONL contract end to end:
// every transition line the engine logs validates against the documented
// schema and walks queued -> running -> done in order.
func TestLogSchemaJobEvents(t *testing.T) {
	var sb strings.Builder
	log := obs.NewLogger(&sb, obs.LogDebug)
	e := New(Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}, Log: log})
	j, _, err := e.SubmitTraced(Spec{Algo: "instant", Points: testPoints(), Seed: 2}, testTraceID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	// The terminal log line lands after done closes; Drain joins the
	// worker so the buffer is quiescent before we read it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.Drain(ctx)

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 job.state lines, got %d:\n%s", len(lines), sb.String())
	}
	wantStates := []string{"queued", "running", "done"}
	for i, line := range lines {
		if err := obs.ValidateLogLine([]byte(line)); err != nil {
			t.Errorf("line %d fails schema: %v\n%s", i, err, line)
		}
		for _, want := range []string{
			`"event":"job.state"`,
			`"job":"` + j.ID + `"`,
			`"state":"` + wantStates[i] + `"`,
			`"trace":"` + testTraceID + `"`,
		} {
			if !strings.Contains(line, want) {
				t.Errorf("line %d missing %s:\n%s", i, want, line)
			}
		}
	}
	if !strings.Contains(lines[2], `"attempts":1`) {
		t.Fatalf("terminal line missing attempts:\n%s", lines[2])
	}
}

// TestRefusedSubmitLogsNothing pins the other half of logging queued
// before the job reaches the queue: a submit refused for a full queue or
// for draining writes no job.state line at all.
func TestRefusedSubmitLogsNothing(t *testing.T) {
	var sb strings.Builder
	log := obs.NewLogger(&sb, obs.LogDebug)
	started := make(chan struct{}, 1)
	e := newTestEngine(t, Config{Workers: 1, QueueSize: 1, Log: log, Runners: map[string]Runner{
		"slow":    slowRunner(started),
		"instant": instantRunner,
	}})
	if _, _, err := e.Submit(Spec{Algo: "slow", Points: testPoints(), TimeoutMS: 60000}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); err != nil {
		t.Fatalf("Submit fill: %v", err)
	}
	if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	e.Drain(ctx)
	if _, _, err := e.Submit(Spec{Algo: "instant", Points: testPoints()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	if got := strings.Count(sb.String(), `"state":"queued"`); got != 2 {
		t.Fatalf("want 2 queued lines (the two admitted jobs), got %d:\n%s", got, sb.String())
	}
}

// TestStreamTraceBounded pins the bound on a job's trace: a k-means
// stream of 10,000 three-row chunks records far more spans than the
// collector keeps, and /trace serves the newest 1024 of them, counts the
// rest in otherData.dropped_spans and stays under a fixed size.
func TestStreamTraceBounded(t *testing.T) {
	const chunks, kept, maxBody = 10000, 1024, 256 << 10
	e, srv := newTracedServer(t, Config{Workers: 1, QueueSize: chunks})
	j, _, err := e.Submit(Spec{Algo: "kmeans", Stream: true, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(i int) [][]float64 {
		return [][]float64{{0, 0}, {10, 10}, {float64(i % 7), 1}}
	}
	for i := 0; i < chunks-1; i++ {
		if _, err := e.Append(j.ID, chunk(i), false); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// Every span of the earlier chunks has ended once their rows are
	// seen, so only the last chunk's spans get ids above mark.
	waitRowsSeen(t, j, 3*(chunks-1))
	mark := obs.NewSpanID()
	if _, err := e.Append(j.ID, chunk(chunks-1), true); err != nil {
		t.Fatalf("final Append: %v", err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("state = %s, want done (err %v)", j.State(), j.Err())
	}
	var recorded int64
	for _, s := range j.col.Snapshot().Spans {
		recorded += s.Count
	}

	resp, body := do(t, srv, "GET", "/v1/jobs/"+j.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("/trace status = %d: %s", resp.StatusCode, body)
	}
	if len(body) >= maxBody {
		t.Fatalf("/trace body is %d bytes, want under %d", len(body), maxBody)
	}
	var tr struct {
		chromeTrace
		OtherData struct {
			DroppedSpans int64 `json:"dropped_spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != kept {
		t.Fatalf("/trace has %d events, want %d", len(tr.TraceEvents), kept)
	}
	if tr.OtherData.DroppedSpans != recorded-kept {
		t.Fatalf("dropped_spans = %d, want %d recorded - %d kept", tr.OtherData.DroppedSpans, recorded, kept)
	}
	lastPushes := 0
	for _, ev := range tr.TraceEvents {
		if id, _ := ev.Args["id"].(float64); ev.Name == "jobs.chunk_push" && obs.SpanID(id) > mark {
			lastPushes++
		}
	}
	if lastPushes != 1 {
		t.Fatalf("/trace holds %d jobs.chunk_push spans of the last chunk, want 1", lastPushes)
	}
}
