package jobs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sendJSON issues a request with an arbitrary method and raw body —
// postJSON's cousin for PATCH and for deliberately malformed payloads.
func sendJSON(t *testing.T, srv *httptest.Server, method, path, raw string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(raw))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func TestHTTPMalformedBodies(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	for _, body := range []string{"{", `{"algo": 7}`, `{"algo":"instant","bogus":true}`, ""} {
		resp, out := sendJSON(t, srv, http.MethodPost, "/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST body %q = %d %s, want 400", body, resp.StatusCode, out)
		}
	}
	// PATCH decodes before it resolves the id, so a malformed chunk body
	// is a 400 even against a missing job.
	resp, out := sendJSON(t, srv, http.MethodPatch, "/v1/jobs/j-1", `{"points": [[1`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PATCH malformed body = %d %s, want 400", resp.StatusCode, out)
	}
}

// TestHTTPErrorResponseBounded sends 4 MB bodies whose error names request
// text as long as the body: a number that overflows a float64, an unknown
// field name and an unknown algo name. Each must still be a 400, answered
// in under 1 kB.
func TestHTTPErrorResponseBounded(t *testing.T) {
	const size = 4 << 20
	h := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}}).Handler()
	for _, c := range []struct{ name, body string }{
		{"overflowing-number", `{"algo":"instant","points":[[1` + strings.Repeat("0", size) + `]]}`},
		{"unknown-field", `{"` + strings.Repeat("x", size) + `":1}`},
		{"unknown-algo", `{"algo":"` + strings.Repeat("x", size) + `","points":[[0]]}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest || rec.Body.Len() >= 1<<10 {
			t.Errorf("%s: status %d with a %d-byte response, want 400 under 1 kB: %.200s", c.name, rec.Code, rec.Body.Len(), rec.Body.Bytes())
		}
	}
}

func TestHTTPUnknownAlgorithm(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, srv, "/v1/jobs", Spec{Algo: "nope", Points: testPoints()}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown algorithm") {
		t.Fatalf("unknown algo = %d %s, want 400 naming the registry", resp.StatusCode, body)
	}
	// The streaming registry is its own namespace with its own error.
	resp, body = postJSON(t, srv, "/v1/jobs", Spec{Algo: "dbscan", Stream: true, K: 2, Points: testPoints()}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown streaming algorithm") {
		t.Fatalf("unknown stream algo = %d %s, want 400 naming the streaming registry", resp.StatusCode, body)
	}
}

func TestHTTPTimeoutOverCap(t *testing.T) {
	// MaxTimeout defaults to 5 minutes; a 10-minute request is refused at
	// admission, not silently capped.
	_, srv := newTestServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	resp, body := postJSON(t, srv, "/v1/jobs", Spec{Algo: "instant", Points: testPoints(), TimeoutMS: 600000}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap") {
		t.Fatalf("over-cap timeout = %d %s, want 400", resp.StatusCode, body)
	}
}

func TestHTTPIdempotencyKeyConflict(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	hdr := map[string]string{"Idempotency-Key": "edge-1"}
	resp, body := postJSON(t, srv, "/v1/jobs", Spec{Algo: "instant", Points: testPoints(), Seed: 1}, hdr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d %s", resp.StatusCode, body)
	}
	// Same key, different body: 409, never a silent dedupe onto the
	// first job's result.
	resp, body = postJSON(t, srv, "/v1/jobs", Spec{Algo: "instant", Points: testPoints(), Seed: 2}, hdr)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting submit = %d %s, want 409", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "different spec") {
		t.Fatalf("conflict body %s: %v", body, err)
	}
}

func TestHTTPStreamLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, srv, "/v1/jobs", Spec{Algo: "kmeans", Stream: true, K: 2, Seed: 21, Points: chunkA()}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID,
		`{"points": [[0.5, 0.5], [10.5, 10.5]]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append = %d %s, want 202", resp.StatusCode, body)
	}
	var app appendResponse
	if err := json.Unmarshal(body, &app); err != nil {
		t.Fatalf("unmarshal append: %v", err)
	}
	if app.ChunksAcked != 2 || app.RowsAcked != 6 {
		t.Fatalf("append ack %+v, want chunks_acked=2 rows_acked=6", app)
	}

	// GET serves the latest snapshot while the stream is open.
	deadline := time.Now().Add(10 * time.Second)
	var st Status
	for {
		resp, body = do(t, srv, http.MethodGet, "/v1/jobs/"+sub.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get = %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("unmarshal status: %v", err)
		}
		if st.Result != nil && st.Result.Stats["rows_seen"] == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never covered both chunks: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !st.Stream || st.State != "running" {
		t.Fatalf("open stream status %+v, want stream=true running", st)
	}

	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID, `{"final": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("close = %d %s", resp.StatusCode, body)
	}
	for {
		resp, body = do(t, srv, http.MethodGet, "/v1/jobs/"+sub.ID)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("unmarshal status: %v", err)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never finalized: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Result == nil || len(st.Result.Labels) == 0 {
		t.Fatalf("finalized stream lacks a result: %+v", st)
	}

	// Appending after the close is a conflict, not a 400 or a dedupe.
	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID, `{"points": [[1, 1], [2, 2]]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append after close = %d %s, want 409", resp.StatusCode, body)
	}
}

func TestHTTPPatchEdges(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	// Unknown job.
	resp, body := sendJSON(t, srv, http.MethodPatch, "/v1/jobs/j-404", `{"points": [[1, 2]]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("patch unknown = %d %s, want 404", resp.StatusCode, body)
	}
	// Batch job: no append surface.
	resp, body = postJSON(t, srv, "/v1/jobs", Spec{Algo: "instant", Points: testPoints()}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID, `{"points": [[1, 2]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("patch batch job = %d %s, want 400", resp.StatusCode, body)
	}
	// Empty non-final chunk.
	resp, body = postJSON(t, srv, "/v1/jobs", Spec{Algo: "kmeans", Stream: true, K: 2, Points: chunkA()}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream submit = %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID, `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty chunk = %d %s, want 400", resp.StatusCode, body)
	}
	// Ragged rows are refused at the door with a typed 400.
	resp, body = sendJSON(t, srv, http.MethodPatch, "/v1/jobs/"+sub.ID, `{"points": [[1, 2], [3]]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged chunk = %d %s, want 400", resp.StatusCode, body)
	}
	// The method-not-allowed surface names PATCH now.
	resp, _ = sendJSON(t, srv, http.MethodPut, "/v1/jobs/"+sub.ID, `{}`)
	if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(resp.Header.Get("Allow"), "PATCH") {
		t.Fatalf("PUT = %d allow %q, want 405 allowing PATCH", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPBodyOverCap sends POST and PATCH bodies one byte over
// maxBodyBytes, streamed from a reader: a valid JSON value padded with
// whitespace. Both must be refused with 413 although the JSON value itself
// ends well before the cap. (A body sent without a length meets the same
// cap in http.MaxBytesReader; reading 64 MB of it is left out here for
// the memory it costs under -race.)
func TestHTTPBodyOverCap(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Runners: map[string]Runner{"instant": instantRunner}})
	stream, _, err := e.Submit(Spec{Algo: "kmeans", Stream: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ method, path, json string }{
		{http.MethodPost, "/v1/jobs", `{"algo":"instant","points":[[1,2]]}`},
		{http.MethodPatch, "/v1/jobs/" + stream.ID, `{"points":[[1,2]]}`},
	} {
		pad := io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(c.json)))
		r := httptest.NewRequest(c.method, c.path, io.MultiReader(strings.NewReader(c.json), pad))
		r.ContentLength = maxBodyBytes + 1
		rr := httptest.NewRecorder()
		e.Handler().ServeHTTP(rr, r)
		var er errorResponse
		if rr.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rr.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Fatalf("%s %s = %d %s, want 413 with a JSON error", c.method, c.path, rr.Code, rr.Body.Bytes())
		}
	}
}
