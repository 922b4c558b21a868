// Package jobs is the resilience envelope that turns multiclust's one-shot
// clustering substrate into a service: a multi-tenant async job engine with
// a bounded queue, per-job deadlines, idempotency keys, cooperative
// cancellation, and graceful drain.
//
// A job is one clustering run — dataset plus algorithm spec — executed
// once by a bounded worker pool through the facade's ...Context variants,
// so every primitive the robust layer guarantees (validation gates, panic
// containment, best-so-far on interrupt, EM's reseed on seeds s, s+1,
// s+2) holds per job, and the facade is the only layer that reseeds. Each
// job records into one obs.Collector of its own, so nothing leaks between
// tenants: its aggregates serve Status.Metrics and /spans, and /trace
// renders the newest 1024 span instances it keeps, so the trace stays
// bounded however long a stream runs.
//
// Lifecycle (exactly one terminal state per admitted job):
//
//	queued ──► running ──► done        (ran to completion)
//	   │           ├─────► partial     (deadline/drain cut it short;
//	   │           │                    best-so-far result attached)
//	   │           ├─────► failed      (typed error, incl. contained panic)
//	   │           └─────► cancelled   (DELETE while running)
//	   └─────────────────► cancelled   (DELETE while still queued)
//
// Backpressure is structural: the queue is a bounded channel, Submit fails
// with ErrQueueFull the instant it is full (HTTP 429 + Retry-After), and
// admission stops with ErrDraining once Drain begins — the engine degrades
// by refusing work, never by growing without bound.
package jobs

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"multiclust/internal/obs"
)

// Typed admission and lookup errors; the HTTP layer maps them to status
// codes (429, 503, 404, 409, 400) in one place, writeErr.
var (
	// ErrQueueFull rejects a Submit while the bounded queue is at
	// capacity. Maps to 429 Too Many Requests with a Retry-After hint.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects a Submit after Drain has begun. Maps to 503.
	ErrDraining = errors.New("jobs: engine draining")
	// ErrNotFound reports an unknown job id. Maps to 404.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrBadSpec reports a spec the engine refuses to admit (unknown
	// algorithm, invalid dataset, negative or over-cap timeout). Maps
	// to 400.
	ErrBadSpec = errors.New("jobs: invalid spec")
	// ErrConflict reports a request that contradicts recorded state: an
	// idempotency key reused with a different spec body, or a chunk
	// appended to a stream that is already closed or terminal. Maps to
	// 409.
	ErrConflict = errors.New("jobs: conflict")
)

// Spec is the JSON body of POST /v1/jobs: one dataset plus the algorithm
// to run on it. Unused knobs may be omitted; zero values defer to the
// algorithm defaults. Seed is the determinism anchor — two jobs with the
// same spec (seed included) produce byte-identical results regardless of
// queue position, worker count, or what other tenants are doing. The rows
// of Points decoded from one request share one backing array.
type Spec struct {
	Algo         string      `json:"algo"`
	Points       [][]float64 `json:"points"`
	K            int         `json:"k,omitempty"`
	Seed         int64       `json:"seed,omitempty"`
	Eps          float64     `json:"eps,omitempty"`
	MinPts       int         `json:"min_pts,omitempty"`
	Restarts     int         `json:"restarts,omitempty"`
	MaxIter      int         `json:"max_iter,omitempty"`
	NumSolutions int         `json:"num_solutions,omitempty"`
	MetaClusters int         `json:"meta_clusters,omitempty"`
	// TimeoutMS bounds the job's wall-clock run; 0 selects the engine
	// default and every value is capped by the engine maximum. An expired
	// deadline does not fail the job: the algorithm returns its
	// best-so-far result and the job lands in StatePartial.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey deduplicates retried submissions: a second POST with
	// the same key and the same spec returns the job admitted by the
	// first instead of enqueueing a sibling; the same key with a
	// *different* spec is refused with ErrConflict (409), never silently
	// deduplicated. The Idempotency-Key HTTP header overrides it.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Stream marks an incremental job: Points (optional) is the first
	// chunk, PATCH /v1/jobs/{id} appends more, GET serves the latest
	// snapshot while the stream is open, and a final append — or a
	// graceful drain — terminalizes the job (Done, or Partial with the
	// last snapshot). StreamAlgorithms lists the algorithms with an
	// incremental learner. TimeoutMS bounds each chunk, not the stream.
	Stream bool `json:"stream,omitempty"`
	// Window bounds the sliding window of the streaming "meta" ensemble
	// (chunks retained before FIFO eviction); 0 defers to the
	// stream-layer default. Ignored by the other streaming algorithms.
	Window int `json:"window,omitempty"`
}

// State is a job's lifecycle position. Done, Partial, Failed and Cancelled
// are terminal; the engine guarantees every admitted job reaches exactly
// one of them exactly once.
type State int

// Lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StatePartial
	StateFailed
	StateCancelled
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// String names the state as it appears on the wire.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StatePartial:
		return "partial"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Outcome is the result surface of a finished (or partially finished) job:
// the label vector (or one per representative solution for ensemble
// algorithms) plus scalar summary statistics. It is deliberately flat and
// JSON-friendly; rich in-process types stay behind the facade.
type Outcome struct {
	Labels    []int              `json:"labels,omitempty"`
	Solutions [][]int            `json:"solutions,omitempty"`
	K         int                `json:"k"`
	Noise     int                `json:"noise,omitempty"`
	Stats     map[string]float64 `json:"stats,omitempty"`
}

// Status is an immutable snapshot of one job, safe to hand across
// goroutines and to serialize. Result is non-nil for done and partial jobs
// (and for cancelled jobs whose algorithm had a best-so-far to return).
type Status struct {
	ID       string           `json:"id"`
	Algo     string           `json:"algo"`
	State    string           `json:"state"`
	Partial  bool             `json:"partial"`
	Attempts int              `json:"attempts,omitempty"`
	Error    string           `json:"error,omitempty"`
	Result   *Outcome         `json:"result,omitempty"`
	Metrics  map[string]int64 `json:"metrics,omitempty"`
	// Streaming bookkeeping (Spec.Stream jobs only): chunks and rows
	// acknowledged so far — acknowledged means the append was accepted
	// into the bounded queue, not necessarily processed yet.
	Stream      bool  `json:"stream,omitempty"`
	ChunksAcked int   `json:"chunks_acked,omitempty"`
	RowsAcked   int64 `json:"rows_acked,omitempty"`
	// TraceID is the W3C trace id of the request that created the job
	// ("" for jobs submitted without one). It is the caller's key into
	// GET /v1/jobs/{id}/spans and /trace.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one admitted clustering run. All mutable fields are guarded by mu;
// readers take snapshots via Status. The done channel closes exactly once,
// at the terminal transition, which also releases the dataset: a terminal
// job keeps only its status, outcome, counters and spans.
type Job struct {
	ID  string
	Key string // idempotency key, "" when none
	// Spec is the admitted spec, immutable after admission. Its Points is
	// always nil: the engine holds the rows only until the run ends.
	Spec Spec
	// TraceID is the trace id of the creating request, fixed at admission
	// for the job's whole async lifetime ("" when untraced). It is the
	// id's one home: Status, /spans, /trace and the job.state lines
	// all read it here.
	TraceID string
	// digest is pointsDigest of the admitted points, taken only when Key
	// is set; a retry with the same key must match it.
	digest [sha256.Size]byte

	// col is the job's one recorder, so nothing leaks between tenants:
	// runners and job spans record to it, Status.Metrics and /spans read
	// its aggregates, and /trace renders the span instances it keeps.
	col *obs.Collector

	mu          sync.Mutex
	points      [][]float64 // a batch job's dataset, nil once terminal
	state       State
	result      *Outcome
	err         error
	attempts    int
	cancel      func() // set when the job starts running
	userCancel  bool   // DELETE seen (distinguishes cancel from deadline)
	enqueuedAt  time.Time
	finishCalls int // total finish attempts; >1 would break exactly-once
	done        chan struct{}

	// Streaming state (Spec.Stream jobs only), also guarded by mu; the
	// opening rows live only as the first pending chunk. Every
	// acknowledged chunk in pending has a matching token in the engine
	// queue, so pending is bounded by the queue capacity. Chunk
	// processing is serialized by a claim: the first worker whose token
	// arrives sets processing and consumes every owed token (tokens
	// counts the ones delivered meanwhile), so the handle never sees two
	// concurrent pushes and chunks fold in strictly in acknowledgement
	// order.
	handle      StreamHandle
	pending     []streamChunk
	closed      bool // a final append was acknowledged; no more chunks
	processing  bool // a worker holds the chunk-processing claim
	tokens      int  // queue tokens delivered but not yet consumed
	chunksAcked int
	rowsAcked   int64
}

// streamChunk is one acknowledged, not-yet-processed chunk of a
// streaming job. A final chunk (possibly with no rows) closes the
// stream: processing it terminalizes the job.
type streamChunk struct {
	rows  [][]float64
	final bool
}

// Done returns a channel closed at the job's terminal transition.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error (nil for done/partial-by-deadline jobs may
// still be non-nil: partial jobs keep the ErrInterrupted wrapper for
// inspection).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the outcome recorded at the terminal transition (nil when
// the job failed without a best-so-far).
func (j *Job) Result() *Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// FinishCalls reports how many terminal transitions were attempted on the
// job — the fault-injection suite asserts this is exactly 1 for every
// admitted job.
func (j *Job) FinishCalls() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishCalls
}

// Status snapshots the job, including its recorded per-job work counters.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Algo:     j.Spec.Algo,
		State:    j.state.String(),
		Partial:  j.state == StatePartial,
		Attempts: j.attempts,
		Result:   j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state.Terminal() {
		st.Metrics = j.col.Snapshot().Counters
	}
	if j.Spec.Stream {
		st.Stream = true
		st.ChunksAcked = j.chunksAcked
		st.RowsAcked = j.rowsAcked
	}
	st.TraceID = j.TraceID
	return st
}
