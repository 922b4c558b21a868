package ops

import (
	"net/http"
	"strings"
	"time"

	"multiclust/internal/obs"
)

// Request instrumentation. Instrument wraps the whole ops mux so every
// request — application or operational — gets the same treatment:
//
//   - trace identity: the W3C `traceparent` header is parsed when valid
//     and a fresh id is minted otherwise (malformed headers are telemetry
//     noise, never a 400); the id rides the request context
//     (obs.WithTraceID) and is echoed back via X-Trace-Id so the caller
//     can correlate later /v1/jobs/{id}/trace pulls.
//   - latency histograms: one http.<route>.<status class>_seconds
//     histogram observation per request on the context's recorder, plus
//     an http.requests counter. Routes are a small fixed vocabulary
//     (routeKey), not raw paths, so cardinality stays bounded.
//   - access log: one http.request JSONL line per request when a logger
//     is attached (method, route, status, bytes, dur_ms, trace, and the
//     job id when the handler set X-Job-Id).

// ParseTraceParent validates a W3C trace-context `traceparent` header
// value (version 00: `00-<32 hex trace id>-<16 hex parent id>-<2 hex
// flags>`, lowercase, ids non-zero) and returns the trace id. ok is
// false for anything malformed — unknown version, wrong length or
// separators, uppercase or non-hex bytes, all-zero ids.
func ParseTraceParent(v string) (traceID string, ok bool) {
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", false
	}
	if v[0] != '0' || v[1] != '0' {
		return "", false
	}
	id, parent, flags := v[3:35], v[36:52], v[53:55]
	if !isLowerHex(id) || !isLowerHex(parent) || !isLowerHex(flags) {
		return "", false
	}
	if allZeroHex(id) || allZeroHex(parent) {
		return "", false
	}
	return id, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// statusWriter captures the response status and body size for metrics and
// the access log. It passes Flush through so streaming handlers (job
// chunk streams, /debug/pprof/profile) keep flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeKey maps a request path onto the fixed route vocabulary used in
// histogram names and access-log lines. Path parameters collapse (every
// job id is "v1_jobs_id"), and unknown paths share one bucket, keeping
// metric cardinality bounded no matter what callers probe.
func routeKey(path string) string {
	switch path {
	case "/v1/jobs", "/v1/jobs/":
		return "v1_jobs"
	case "/metrics":
		return "metrics"
	case "/spans":
		return "spans"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		if _, sub, found := strings.Cut(rest, "/"); found {
			switch sub {
			case "spans":
				return "v1_jobs_id_spans"
			case "trace":
				return "v1_jobs_id_trace"
			}
			return "v1_jobs_id_other"
		}
		return "v1_jobs_id"
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "debug_pprof"
	}
	return "other"
}

// statusClass maps an HTTP status code to its class label ("2xx"…"5xx").
func statusClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	}
	return "5xx"
}

// Instrument wraps next with trace-id propagation, per-route latency
// histograms and access logging (see the package comment above). log may
// be nil (no access log); metrics go to the request context's recorder
// via obs.From, so with no recorder installed the metric path costs one
// nil check.
func Instrument(next http.Handler, log *obs.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, ok := ParseTraceParent(r.Header.Get("traceparent"))
		if !ok {
			traceID = obs.MintTraceID()
		}
		r = r.WithContext(obs.WithTraceID(r.Context(), traceID))
		w.Header().Set("X-Trace-Id", traceID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.status == 0 {
			// Handler wrote nothing at all; net/http will send 200.
			sw.status = http.StatusOK
		}
		route := routeKey(r.URL.Path)
		if rec := obs.From(r.Context()); rec != nil {
			obs.Count(rec, "http.requests", 1)
			obs.Histogram(rec, "http."+route+"."+statusClass(sw.status)+"_seconds", elapsed.Seconds())
		}
		if log != nil {
			fields := []obs.LogField{
				obs.LStr("method", r.Method),
				obs.LStr("route", route),
				obs.LInt("status", int64(sw.status)),
				obs.LInt("bytes", sw.bytes),
				obs.LDurMS("dur_ms", elapsed),
				obs.LStr("trace", traceID),
			}
			if job := sw.Header().Get("X-Job-Id"); job != "" {
				fields = append(fields, obs.LStr("job", job))
			}
			log.Info("http.request", fields...)
		}
	})
}
