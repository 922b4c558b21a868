package ops

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"multiclust/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

const validParent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

func TestParseTraceParentValid(t *testing.T) {
	id, ok := ParseTraceParent(validParent)
	if !ok || id != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("ParseTraceParent(valid) = %q, %v", id, ok)
	}
}

// The malformed-header satellite: every malformation is rejected by the
// parser (ok=false) and, at the HTTP layer, handled gracefully — a fresh
// id is minted, the request succeeds, nothing 400s or panics.
func TestParseTraceParentMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"wrong version":     "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"version ff":        "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"short trace id":    "00-0af7651916cd43dd-b7ad6b7169203331-01",
		"short parent id":   "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71-01",
		"all-zero trace id": "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"all-zero parent":   "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"uppercase hex":     "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"garbage bytes":     "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-b7ad6b7169203331-01",
		"wrong separators":  "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01",
		"trailing junk":     validParent + "-extra",
		"binary noise":      "\x00\x01\x02\x03",
	}
	for name, header := range cases {
		if id, ok := ParseTraceParent(header); ok {
			t.Errorf("%s: ParseTraceParent(%q) accepted as %q", name, header, id)
		}
	}

	// End to end: each malformed header still gets a 200 and a freshly
	// minted, well-formed X-Trace-Id.
	handler := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), nil)
	for name, header := range cases {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", name, rw.Code)
		}
		id := rw.Header().Get("X-Trace-Id")
		if !traceIDRe.MatchString(id) {
			t.Errorf("%s: minted X-Trace-Id %q is not 32 lowercase hex", name, id)
		}
		if id == "0af7651916cd43dd8448eb211c80319c" {
			t.Errorf("%s: malformed header's trace id was adopted", name)
		}
	}
}

func TestInstrumentEchoesValidTraceParent(t *testing.T) {
	var seen string
	handler := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = obs.TraceIDFrom(r.Context())
	}), nil)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("traceparent", validParent)
	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	want := "0af7651916cd43dd8448eb211c80319c"
	if got := rw.Header().Get("X-Trace-Id"); got != want {
		t.Fatalf("X-Trace-Id = %q, want %q", got, want)
	}
	if seen != want {
		t.Fatalf("context trace id = %q, want %q", seen, want)
	}
}

func TestInstrumentRecordsRouteHistograms(t *testing.T) {
	col := obs.NewCollector()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j-1" {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	handler := Instrument(inner, nil)
	serve := func(path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req = req.WithContext(obs.NewContext(req.Context(), col))
		handler.ServeHTTP(httptest.NewRecorder(), req)
	}
	serve("/metrics")
	serve("/metrics")
	serve("/v1/jobs/j-1")
	serve("/v1/jobs/j-1/trace")
	serve("/no/such/path")

	if got := col.Counter("http.requests"); got != 5 {
		t.Fatalf("http.requests = %d, want 5", got)
	}
	for name, want := range map[string]int64{
		"http.metrics.2xx_seconds":          2,
		"http.v1_jobs_id.4xx_seconds":       1,
		"http.v1_jobs_id_trace.2xx_seconds": 1,
		"http.other.2xx_seconds":            1,
	} {
		h, ok := col.HistValue(name)
		if !ok || h.Count != want {
			t.Errorf("histogram %s count = %d (ok=%v), want %d", name, h.Count, ok, want)
		}
	}
}

func TestRouteKeyVocabulary(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/jobs":              "v1_jobs",
		"/v1/jobs/":             "v1_jobs",
		"/v1/jobs/j-12":         "v1_jobs_id",
		"/v1/jobs/j-12/spans":   "v1_jobs_id_spans",
		"/v1/jobs/j-12/trace":   "v1_jobs_id_trace",
		"/v1/jobs/j-12/unknown": "v1_jobs_id_other",
		"/v1/jobs/j-12/stream":  "v1_jobs_id_other",
		"/metrics":              "metrics",
		"/spans":                "spans",
		"/healthz":              "healthz",
		"/readyz":               "readyz",
		"/debug/pprof/heap":     "debug_pprof",
		"/anything/else":        "other",
	} {
		if got := routeKey(path); got != want {
			t.Errorf("routeKey(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestLogSchemaAccessLog: the middleware's access-log lines carry the
// documented http.request schema, including the job id relayed from the
// handler's X-Job-Id header.
func TestLogSchemaAccessLog(t *testing.T) {
	var sb strings.Builder
	logger := obs.NewLogger(&sb, obs.LogInfo)
	logger.SetClock(func() time.Time {
		return time.Date(2026, 8, 9, 7, 0, 0, 0, time.UTC)
	})
	handler := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Job-Id", "j-7")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"j-7"}`))
	}), logger)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader("{}"))
	req.Header.Set("traceparent", validParent)
	handler.ServeHTTP(httptest.NewRecorder(), req)

	line := strings.TrimSuffix(sb.String(), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("want exactly one access-log line, got: %q", sb.String())
	}
	if err := obs.ValidateLogLine([]byte(line)); err != nil {
		t.Fatalf("access-log line fails schema: %v\n%s", err, line)
	}
	for _, want := range []string{
		`"event":"http.request"`, `"method":"POST"`, `"route":"v1_jobs"`,
		`"status":202`, `"trace":"0af7651916cd43dd8448eb211c80319c"`, `"job":"j-7"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access-log line missing %s:\n%s", want, line)
		}
	}
}

// The /metrics content-type satellite: the Prometheus text exposition
// content type, pinned at the handler level.
func TestMetricsContentType(t *testing.T) {
	col := obs.NewCollector()
	col.Count("x", 1)
	mux := NewMux(col)
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rw.Code)
	}
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if got := rw.Header().Get("Content-Type"); got != want {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, want)
	}
}

// Flush must pass through the status-capturing wrapper so streaming
// handlers (pprof profiles, chunked job streams) keep working.
func TestStatusWriterFlushPassthrough(t *testing.T) {
	rw := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rw}
	var _ http.Flusher = sw
	if _, err := sw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	sw.Flush()
	if !rw.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
	if sw.status != http.StatusOK || sw.bytes != 3 {
		t.Fatalf("statusWriter recorded status=%d bytes=%d", sw.status, sw.bytes)
	}
}
