package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"unicode/utf8"

	"multiclust/internal/obs"
)

// API wire shapes beyond Status (which GET returns verbatim).
type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Duplicate bool   `json:"duplicate,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// appendRequest is the body of PATCH /v1/jobs/{id}: one more chunk of a
// streaming job. final closes the stream (an empty final body is a pure
// close); the job terminalizes once the final chunk is processed.
type appendRequest struct {
	Points [][]float64 `json:"points,omitempty"`
	Final  bool        `json:"final,omitempty"`
}

// appendResponse acknowledges an accepted chunk. ChunksAcked and
// RowsAcked count everything accepted so far, this chunk included.
type appendResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	ChunksAcked int    `json:"chunks_acked"`
	RowsAcked   int64  `json:"rows_acked"`
}

// Handler serves the job API:
//
//	POST   /v1/jobs        submit a Spec               -> 202 {id,state}
//	                       duplicate idempotency key   -> 200 {id,state,duplicate:true}
//	                       key reused, different spec  -> 409
//	                       queue full                  -> 429 + Retry-After
//	                       draining                    -> 503
//	                       bad spec/body               -> 400
//	GET    /v1/jobs        list all job statuses       -> 200 [Status...]
//	GET    /v1/jobs/{id}   one status (+result,metrics)-> 200 Status | 404
//	PATCH  /v1/jobs/{id}   append a chunk (stream job) -> 202 {id,state,chunks_acked,rows_acked}
//	                       stream closed/job terminal  -> 409
//	                       queue full                  -> 429 + Retry-After
//	                       draining                    -> 503
//	                       not a stream / bad chunk    -> 400
//	DELETE /v1/jobs/{id}   cancel                      -> 200 {id,state} | 404
//	GET    /v1/jobs/{id}/spans  recorded span tree     -> 200 text | 404
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON-> 200 | 404
//	                            job not terminal yet   -> 409
//
// Partial results are a success surface: a job cut short by its deadline
// reports state "partial" with "partial": true and the best-so-far result,
// status 200. While a streaming job is open, GET serves its latest
// snapshot in "result".
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs")
		if !ok {
			writeError(w, http.StatusNotFound, "not found")
			return
		}
		rest = strings.Trim(rest, "/")
		switch {
		case rest == "" && r.Method == http.MethodPost:
			e.handleSubmit(w, r)
		case rest == "" && r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, e.List())
		case rest == "":
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		case strings.Contains(rest, "/"):
			id, sub, _ := strings.Cut(rest, "/")
			switch {
			case sub == "spans" && r.Method == http.MethodGet:
				e.handleSpans(w, id)
			case sub == "trace" && r.Method == http.MethodGet:
				e.handleTrace(w, id)
			case sub == "spans" || sub == "trace":
				w.Header().Set("Allow", "GET")
				writeError(w, http.StatusMethodNotAllowed, "method not allowed")
			default:
				writeError(w, http.StatusNotFound, "not found")
			}
		case r.Method == http.MethodGet:
			e.handleGet(w, rest)
		case r.Method == http.MethodPatch:
			e.handleAppend(w, r, rest)
		case r.Method == http.MethodDelete:
			e.handleCancel(w, rest)
		default:
			w.Header().Set("Allow", "GET, PATCH, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	})
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeRequest(w, r, "spec", &spec, &spec.Points) {
		return
	}
	// The header wins over the body field, per the usual idempotency-key
	// convention; both feed the same dedup map.
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		spec.IdempotencyKey = key
	}
	// The ops Instrument middleware put the request's trace id on the
	// context; the job carries it for its whole async lifetime.
	j, duplicate, err := e.SubmitTraced(spec, obs.TraceIDFrom(r.Context()))
	switch {
	case err != nil:
		writeErr(w, err)
	case duplicate:
		// A deduplicated submission reports the original job's trace id —
		// that is the one its telemetry carries.
		w.Header().Set("X-Job-Id", j.ID)
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, State: j.State().String(), Duplicate: true, TraceID: j.TraceID})
	default:
		// X-Job-Id lets the access-log middleware correlate this request
		// with the job it admitted.
		w.Header().Set("X-Job-Id", j.ID)
		writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, State: j.State().String(), TraceID: j.TraceID})
	}
}

func (e *Engine) handleGet(w http.ResponseWriter, id string) {
	j, err := e.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (e *Engine) handleAppend(w http.ResponseWriter, r *http.Request, id string) {
	var req appendRequest
	if !decodeRequest(w, r, "chunk", &req, &req.Points) {
		return
	}
	j, err := e.Append(id, req.Points, req.Final)
	if err != nil {
		writeErr(w, err)
		return
	}
	st := j.Status()
	writeJSON(w, http.StatusAccepted, appendResponse{
		ID: j.ID, State: st.State, ChunksAcked: st.ChunksAcked, RowsAcked: st.RowsAcked,
	})
}

// handleSpans serves the job's recorded span tree as indented text,
// prefixed with a trace_id line when the job was traced. Unlike /trace it
// is served at any lifecycle stage: it snapshots whatever has been
// aggregated so far, which is useful while a long job is still running.
func (e *Engine) handleSpans(w http.ResponseWriter, id string) {
	j, err := e.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if j.TraceID != "" {
		fmt.Fprintf(w, "trace_id %s\n", j.TraceID)
	}
	_ = j.col.Snapshot().WriteSpanTree(w)
}

// handleTrace serves the span instances the job's collector kept (the
// newest 1024) as Chrome trace-event JSON, loadable in chrome://tracing
// or Perfetto. It refuses with 409 until the job is terminal: spans close
// before the terminal transition, so a terminal job's spans are complete
// and immutable.
func (e *Engine) handleTrace(w http.ResponseWriter, id string) {
	j, err := e.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !j.State().Terminal() {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("jobs: job %s is %s; the trace is served once the job is terminal", id, j.State()))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// Rendering can only fail on a write, which has no recovery surface.
	_ = j.col.WriteChromeTrace(w, j.TraceID)
}

func (e *Engine) handleCancel(w http.ResponseWriter, id string) {
	state, err := e.Cancel(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, submitResponse{ID: id, State: state.String()})
}

// writeErr writes err as the error response under the status its typed
// error maps to; any other error, such as ErrBadSpec, is a 400.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		// A saturated queue drains at worker speed; one second is a
		// deliberately conservative static hint (no clock consulted).
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, err.Error())
}

// maxErrorBytes bounds the message of an error response: a message can
// quote request text, such as an unknown field or algorithm name, that is
// as long as the body.
const maxErrorBytes = 256

// writeError writes msg as the error response with the given status,
// clipped at a rune boundary to maxErrorBytes.
func writeError(w http.ResponseWriter, status int, msg string) {
	if len(msg) > maxErrorBytes {
		n := maxErrorBytes
		for !utf8.RuneStart(msg[n]) {
			n--
		}
		msg = msg[:n] + "..."
	}
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// A failed encode after WriteHeader has no recovery surface; the
	// connection is simply cut short.
	_ = json.NewEncoder(w).Encode(v)
}
