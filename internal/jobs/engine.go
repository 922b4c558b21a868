package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiclust/internal/core"
	"multiclust/internal/obs"
	"multiclust/internal/parallel"
	"multiclust/internal/robust"
)

// Config sizes the engine. The zero value resolves to conservative
// defaults; every bound exists so overload degrades into refusals (429/503)
// instead of unbounded memory or latency.
type Config struct {
	// Workers is the number of concurrent job executors; <=0 resolves via
	// the shared parallel-layer knob (MULTICLUST_WORKERS, then
	// GOMAXPROCS). This bounds service concurrency; the parallelism
	// *inside* one job is still governed by multiclust.SetWorkers.
	Workers int
	// QueueSize bounds the admission queue (default 64). Submit fails
	// with ErrQueueFull — never blocks, never grows — once it is full.
	QueueSize int
	// DefaultTimeout applies to jobs that request none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps every requested timeout (default 5m), so no tenant
	// can park a worker indefinitely.
	MaxTimeout time.Duration
	// MaxPoints bounds the dataset size admitted per job (default
	// 200000 rows); larger submissions are refused with ErrBadSpec.
	MaxPoints int
	// Runners extends or overrides the default algorithm registry —
	// the chaos suite injects faulty runners and the bench harness a
	// no-op runner through this seam. Nil entries delete a default.
	Runners map[string]Runner
	// Streams extends or overrides the streaming algorithm registry
	// (Spec.Stream jobs), the same seam Runners is for batch jobs. Nil
	// entries delete a default.
	Streams map[string]StreamFactory
	// Log, when non-nil, receives one job.state JSONL line per lifecycle
	// transition (queued, running, and the terminal state), carrying the
	// job id, state, trace id and — on terminal lines — attempt count
	// and error text. Failed transitions log at error level, partial at
	// warn, everything else at info.
	Log *obs.Logger
}

// DrainReport summarizes what graceful shutdown did with the admitted jobs.
type DrainReport struct {
	Done      int  `json:"done"`
	Partial   int  `json:"partial"`
	Failed    int  `json:"failed"`
	Cancelled int  `json:"cancelled"`
	Truncated bool `json:"truncated"` // drain deadline fired before the pool went idle
}

// Engine is the bounded async job engine. Create with New, feed with
// Submit (or the HTTP handler), stop with Drain.
type Engine struct {
	cfg   Config
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	byKey    map[string]string // idempotency key -> job id
	draining bool
	seq      int64

	// stopped is set at the drain deadline: every job context still alive
	// is cancelled and jobs that start after it are cut immediately, so
	// the pool settles to best-so-far instead of serving out timeouts.
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New builds the engine and starts its worker pool. The pool runs until
// Drain; an Engine is not restartable.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = parallel.Workers(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 200000
	}
	// Overrides land on copies of the defaults; a nil override deletes.
	runners, streams := maps.Clone(defaultRunners), maps.Clone(defaultStreams)
	maps.Copy(runners, cfg.Runners)
	maps.Copy(streams, cfg.Streams)
	maps.DeleteFunc(runners, func(_ string, r Runner) bool { return r == nil })
	maps.DeleteFunc(streams, func(_ string, f StreamFactory) bool { return f == nil })
	cfg.Runners, cfg.Streams = runners, streams

	e := &Engine{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueSize),
		jobs:  make(map[string]*Job),
		byKey: make(map[string]string),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		//lint:ignore nakedgo job workers are service lifecycle, not compute fan-out: they only move jobs from the bounded queue to the facade's ...Context calls, whose results are seed-deterministic regardless of which worker runs them; compute inside a job still funnels through internal/parallel
		go func() {
			defer e.wg.Done()
			e.worker()
		}()
	}
	return e
}

// validate is the admission gate: everything that can be rejected
// synchronously with a 400 is rejected here, so the bounded queue holds
// only runnable work. Deeper failures (degenerate fits, interrupts) are
// legitimate terminal states, not admission errors.
func (e *Engine) validate(spec Spec) error {
	if spec.Stream {
		if _, ok := e.cfg.Streams[spec.Algo]; !ok {
			return fmt.Errorf("%w: unknown streaming algorithm %q (have %s)", ErrBadSpec, spec.Algo, strings.Join(sortedNames(e.cfg.Streams), ", "))
		}
	} else if _, ok := e.cfg.Runners[spec.Algo]; !ok {
		return fmt.Errorf("%w: unknown algorithm %q (have %s)", ErrBadSpec, spec.Algo, strings.Join(sortedNames(e.cfg.Runners), ", "))
	}
	if len(spec.Points) > e.cfg.MaxPoints {
		return fmt.Errorf("%w: %d points exceeds the %d-row admission bound", ErrBadSpec, len(spec.Points), e.cfg.MaxPoints)
	}
	// A streaming job may open with no rows at all — the first chunk
	// arrives by PATCH; a batch job's dataset is validated here in full.
	if !spec.Stream || len(spec.Points) > 0 {
		if err := robust.ValidateDataset(spec.Points); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	if spec.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrBadSpec, spec.TimeoutMS)
	}
	if max := e.cfg.MaxTimeout.Milliseconds(); spec.TimeoutMS > max {
		return fmt.Errorf("%w: timeout_ms %d exceeds the %dms cap", ErrBadSpec, spec.TimeoutMS, max)
	}
	if spec.K < 0 {
		return fmt.Errorf("%w: negative k %d", ErrBadSpec, spec.K)
	}
	if spec.Window < 0 {
		return fmt.Errorf("%w: negative window %d", ErrBadSpec, spec.Window)
	}
	return nil
}

// Submit admits one job. The returned bool is true when an idempotency key
// matched an existing job with the same spec (nothing new was enqueued).
// Errors: ErrBadSpec (refused outright), ErrConflict (idempotency key
// reused with a different spec), ErrQueueFull (queue at capacity — retry
// later), ErrDraining (engine shutting down).
func (e *Engine) Submit(spec Spec) (*Job, bool, error) {
	return e.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with the creating request's trace id attached:
// the id sticks to the job for its whole async lifetime — /spans,
// the Chrome trace behind /v1/jobs/{id}/trace, the job.state log lines
// and the Status all carry it. The HTTP handler threads the
// middleware's trace id through here; "" submits untraced (identical to
// Submit). The trace id is pure telemetry and deliberately excluded from
// idempotency comparison: a retried request with a fresh traceparent
// still deduplicates, keeping the original job's id.
//
// A retry matches when its points have the digest the original's had at
// admission and every other field is equal, which is exactly when the
// two specs are equal under reflect.DeepEqual.
func (e *Engine) SubmitTraced(spec Spec, traceID string) (*Job, bool, error) {
	if err := e.validate(spec); err != nil {
		return nil, false, err
	}
	// The streaming handle is built outside the engine lock — factory
	// errors are admission errors, surfaced as 400s like any bad spec.
	var handle StreamHandle
	if spec.Stream {
		h, err := e.cfg.Streams[spec.Algo](spec)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		handle = h
	}
	// Only a keyed spec is ever compared, so only it pays for the
	// digest, and it pays outside the engine lock.
	var digest [sha256.Size]byte
	if spec.IdempotencyKey != "" {
		digest = pointsDigest(spec.Points)
	}
	points := spec.Points
	spec.Points = nil
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		obs.Count(obs.Default(), "jobs.rejected_draining", 1)
		return nil, false, ErrDraining
	}
	if spec.IdempotencyKey != "" {
		if id, ok := e.byKey[spec.IdempotencyKey]; ok {
			j := e.jobs[id]
			e.mu.Unlock()
			// j.Spec and j.digest are fixed at admission, so they are
			// read without j.mu.
			if j.digest != digest || !reflect.DeepEqual(j.Spec, spec) {
				// Same key, different request: refusing loudly is the
				// only safe answer — silent dedup would hand the caller
				// a result for a spec it never sent.
				obs.Count(obs.Default(), "jobs.key_conflicts", 1)
				return nil, false, fmt.Errorf("%w: idempotency key %q was used with a different spec", ErrConflict, spec.IdempotencyKey)
			}
			obs.Count(obs.Default(), "jobs.duplicate_hits", 1)
			return j, true, nil
		}
	}
	e.seq++
	j := &Job{
		ID:         "j-" + strconv.FormatInt(e.seq, 10),
		Key:        spec.IdempotencyKey,
		Spec:       spec,
		TraceID:    traceID,
		digest:     digest,
		col:        obs.NewCollector(),
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
		handle:     handle,
	}
	// A streaming job that opens with rows carries them as its first
	// chunk; one that opens empty holds no queue slot until a PATCH
	// appends work.
	needToken := true
	switch {
	case !spec.Stream:
		j.points = points
	case len(points) > 0:
		j.pending = []streamChunk{{rows: points}}
		j.chunksAcked = 1
		j.rowsAcked = int64(len(points))
	default:
		needToken = false
	}
	// Every send on the queue happens under e.mu, and workers only take
	// from it, so a free slot seen here is still free at the send below.
	// That lets the refusal be decided first and the queued line be
	// written before any worker can receive the job and log running.
	if needToken && len(e.queue) == cap(e.queue) {
		e.seq-- // nothing admitted; keep ids dense
		e.mu.Unlock()
		obs.Count(obs.Default(), "jobs.rejected_full", 1)
		return nil, false, ErrQueueFull
	}
	e.jobs[j.ID] = j
	if j.Key != "" {
		e.byKey[j.Key] = j.ID
	}
	e.logState(j, StateQueued, 0, nil)
	if needToken {
		e.queue <- j
	}
	e.mu.Unlock()
	obs.Count(obs.Default(), "jobs.submitted", 1)
	return j, false, nil
}

// pointsDigest hashes what reflect.DeepEqual tells apart in a validated
// dataset: nil versus empty, the row count, each row's length and each
// value. A -0 is hashed as +0, because == finds them equal; NaN and Inf
// never pass validation, so for every other value == is equality of
// bits. SHA-256, not a faster hash: a crafted collision would hand one
// spec's result to a caller who sent another.
func pointsDigest(points [][]float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	n := 0
	put := func(u uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], u)
		n += 8
	}
	if points != nil {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(points)))
	for _, row := range points {
		put(uint64(len(row)))
		for _, v := range row {
			if v == 0 {
				v = 0
			}
			put(math.Float64bits(v))
		}
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// logState emits one job.state line for a lifecycle transition. attempts
// and err are only rendered on terminal transitions (attempts > 0).
func (e *Engine) logState(j *Job, s State, attempts int, err error) {
	log := e.cfg.Log
	if log == nil {
		return
	}
	fields := make([]obs.LogField, 0, 5)
	fields = append(fields, obs.LStr("job", j.ID), obs.LStr("state", s.String()))
	if j.TraceID != "" {
		fields = append(fields, obs.LStr("trace", j.TraceID))
	}
	if attempts > 0 {
		fields = append(fields, obs.LInt("attempts", int64(attempts)))
	}
	if err != nil {
		fields = append(fields, obs.LStr("err", err.Error()))
	}
	level := obs.LogInfo
	switch s {
	case StateFailed:
		level = obs.LogError
	case StatePartial:
		level = obs.LogWarn
	}
	log.Log(level, "job.state", fields...)
}

// Append acknowledges one more chunk of a streaming job and enqueues its
// processing. Acknowledgement and backpressure are one decision: the
// chunk is accepted exactly when a queue slot is, so every acknowledged
// chunk has a worker token and a full queue refuses the chunk outright
// (ErrQueueFull, HTTP 429 — the caller retries, nothing is buffered).
// final closes the stream: after the final chunk is processed the job
// terminalizes (Done), and later appends are refused with ErrConflict.
// An empty final append is a pure close. Errors: ErrNotFound, ErrBadSpec
// (not a streaming job, empty or invalid chunk), ErrConflict (stream
// closed or job terminal), ErrDraining, ErrQueueFull.
func (e *Engine) Append(id string, rows [][]float64, final bool) (*Job, error) {
	if len(rows) == 0 && !final {
		return nil, fmt.Errorf("%w: empty chunk", ErrBadSpec)
	}
	if len(rows) > e.cfg.MaxPoints {
		return nil, fmt.Errorf("%w: %d rows exceeds the %d-row admission bound", ErrBadSpec, len(rows), e.cfg.MaxPoints)
	}
	if len(rows) > 0 {
		if err := robust.ValidateDataset(rows); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.Spec.Stream {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: job %s is not a streaming job", ErrBadSpec, id)
	}
	if e.draining {
		// Admission stops with drain exactly like Submit; chunks already
		// acknowledged still drain through the queue.
		e.mu.Unlock()
		obs.Count(obs.Default(), "jobs.rejected_draining", 1)
		return nil, ErrDraining
	}
	j.mu.Lock()
	if j.state.Terminal() {
		st := j.state
		j.mu.Unlock()
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: job %s is already %s", ErrConflict, id, st)
	}
	if j.closed {
		j.mu.Unlock()
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: stream %s is closed", ErrConflict, id)
	}
	j.pending = append(j.pending, streamChunk{rows: rows, final: final})
	// The queue cannot be closed here: close happens under e.mu together
	// with the draining flag checked above.
	select {
	case e.queue <- j:
		j.closed = final
		j.chunksAcked++
		j.rowsAcked += int64(len(rows))
		j.mu.Unlock()
		e.mu.Unlock()
		obs.Count(obs.Default(), "jobs.chunks_appended", 1)
		return j, nil
	default:
		j.pending = j.pending[:len(j.pending)-1] // not acknowledged
		j.mu.Unlock()
		e.mu.Unlock()
		obs.Count(obs.Default(), "jobs.rejected_full", 1)
		return nil, ErrQueueFull
	}
}

// Get returns the job by id.
func (e *Engine) Get(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// List snapshots every known job, ordered by ascending id (admission
// order).
func (e *Engine) List() []Status {
	e.mu.Lock()
	all := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		all = append(all, j)
	}
	e.mu.Unlock()
	sort.Slice(all, func(a, b int) bool {
		na, _ := strconv.Atoi(all[a].ID[2:])
		nb, _ := strconv.Atoi(all[b].ID[2:])
		return na < nb
	})
	out := make([]Status, len(all))
	for i, j := range all {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of the job: a queued job transitions to
// Cancelled immediately; a running job has its context cancelled and
// settles (Cancelled, with any best-so-far result attached) as soon as the
// algorithm observes it. Cancelling a terminal job is a no-op. The returned
// state is the job's state after the request took effect.
func (e *Engine) Cancel(id string) (State, error) {
	j, err := e.Get(id)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.mu.Unlock()
		// The queued->cancelled transition goes through the single
		// terminal path; the worker that later pulls the job sees a
		// terminal state and skips it.
		e.finish(j, StateCancelled, nil, context.Canceled)
		obs.Count(obs.Default(), "jobs.cancelled_queued", 1)
	case j.state == StateRunning:
		j.userCancel = true
		cancel := j.cancel
		// A streaming job idling between chunks has no context to cancel
		// and no queue token that would sweep it; it settles here, with
		// its best-so-far snapshot attached.
		idle := j.Spec.Stream && !j.processing && len(j.pending) == 0
		best := j.result
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if idle {
			e.finish(j, StateCancelled, best, context.Canceled)
		}
	default:
		j.mu.Unlock()
	}
	return j.State(), nil
}

// Ready reports whether the engine can admit work right now: an error
// while draining or while the queue is saturated, nil otherwise. Wired to
// the ops /readyz probe.
func (e *Engine) Ready() error {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if len(e.queue) == cap(e.queue) {
		return ErrQueueFull
	}
	return nil
}

// Drain gracefully shuts the engine down: admission stops immediately
// (Submit returns ErrDraining), queued and in-flight jobs keep running
// until the pool is idle or ctx fires, at which point every remaining job
// context is cancelled so in-flight runs settle with their best-so-far
// (Partial) and still-queued jobs settle as the workers sweep them. No
// admitted job is lost: by return, every job is in exactly one terminal
// state. Drain is idempotent; later calls wait on the same shutdown.
func (e *Engine) Drain(ctx context.Context) DrainReport {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()

	idle := make(chan struct{})
	//lint:ignore nakedgo shutdown waiter, joined below on every path via the idle channel; it runs no algorithm code
	go func() { e.wg.Wait(); close(idle) }()

	rep := DrainReport{}
	select {
	case <-idle:
	case <-ctx.Done():
		rep.Truncated = true
		e.stop() // cut every in-flight job to best-so-far
		<-idle
	}

	// Open streams never see a final chunk once admission stops, so the
	// workers alone cannot terminalize them: every acknowledged chunk has
	// been processed by now (the pool is idle), and this sweep settles
	// each still-open stream with its last snapshot (Partial) — or
	// Cancelled when no chunk ever produced one.
	e.mu.Lock()
	ids := make([]string, 0, len(e.jobs))
	for id := range e.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var open []*Job
	for _, id := range ids {
		if j := e.jobs[id]; j.Spec.Stream && !j.State().Terminal() {
			open = append(open, j)
		}
	}
	e.mu.Unlock()
	for _, j := range open {
		j.mu.Lock()
		best := j.result
		j.mu.Unlock()
		if best != nil {
			e.finish(j, StatePartial, best, fmt.Errorf("jobs: stream cut short by drain: %w", core.ErrInterrupted))
		} else {
			e.finish(j, StateCancelled, nil, fmt.Errorf("jobs: stream drained before any snapshot: %w", core.ErrInterrupted))
		}
	}

	e.mu.Lock()
	for _, j := range e.jobs {
		switch j.State() {
		case StateDone:
			rep.Done++
		case StatePartial:
			rep.Partial++
		case StateFailed:
			rep.Failed++
		case StateCancelled:
			rep.Cancelled++
		}
	}
	e.mu.Unlock()
	if rep.Truncated {
		obs.Count(obs.Default(), "jobs.drain_truncated", 1)
	}
	return rep
}

// stop marks the drain deadline and cancels every job context still alive.
// The atomic flag and the per-job mutexes together close the race with a
// concurrently starting job: a job that installs its cancel hook after the
// sweep passed it must then observe stopped (sequentially consistent
// atomics) and cut itself in execute.
func (e *Engine) stop() {
	e.stopped.Store(true)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// worker moves jobs from the bounded queue into execute until Drain closes
// the queue and it runs dry. A streaming job appears once per
// acknowledged chunk; each token processes exactly one.
func (e *Engine) worker() {
	for j := range e.queue {
		if j.Spec.Stream {
			e.executeChunk(j)
		} else {
			e.execute(j)
		}
	}
}

// resolveTimeout maps a spec's requested per-run (or, for streams,
// per-chunk) budget onto the engine bounds.
func (e *Engine) resolveTimeout(ms int64) time.Duration {
	timeout := time.Duration(ms) * time.Millisecond
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > e.cfg.MaxTimeout {
		timeout = e.cfg.MaxTimeout
	}
	return timeout
}

// tryStart moves the job to Running, counts its one run, installs its
// cancel hook and returns the spec with its points attached, or reports
// false when the job was cancelled while queued.
func (e *Engine) tryStart(j *Job, cancel func()) (Spec, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return Spec{}, false
	}
	j.state = StateRunning
	j.attempts = 1
	j.cancel = cancel
	spec := j.Spec
	spec.Points = j.points
	return spec, true
}

// execute runs one job to its terminal state with one call of its
// runner. Panics cannot escape: the call is wrapped in robust.RecoverTo,
// so a panicking runner fails the job (ErrPanic) and the worker lives on.
func (e *Engine) execute(j *Job) {
	timeout := e.resolveTimeout(j.Spec.TimeoutMS)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec, ok := e.tryStart(j, cancel)
	if !ok {
		return // cancelled while queued; already terminal
	}
	e.logState(j, StateRunning, 0, nil)
	if e.stopped.Load() {
		// Swept from the queue at the drain deadline: the cancel hook is
		// installed, so cutting here (or by the stop sweep — whichever
		// observes the other) settles the run to best-so-far immediately.
		cancel()
	}
	obs.Histogram(obs.Default(), "jobs.queue_wait_seconds", time.Since(j.enqueuedAt).Seconds())
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	defer tcancel()
	// The job's own collector is the context recorder: every counter and
	// span the algorithm records lands in this job's telemetry and nowhere
	// else. The trace id rides along so nested SpanCtx trees stay
	// correlated with the creating request.
	tctx = obs.NewContext(obs.WithTraceID(tctx, j.TraceID), j.col)

	runner := e.cfg.Runners[spec.Algo]
	execStart := time.Now()
	out, err := func() (o *Outcome, rerr error) {
		defer robust.RecoverTo(&rerr)
		// One jobs.run span on the job's own collector roots every
		// algorithm phase of the /v1/jobs/{id}/trace tree. The deferred
		// end closes the span before the terminal transition, so every
		// span of the job is in the collector by the time /trace becomes
		// servable.
		rctx, end := obs.SpanCtx(tctx, j.col, "jobs.run")
		defer end()
		return runner(rctx, spec)
	}()
	obs.Histogram(obs.Default(), "jobs.exec_seconds", time.Since(execStart).Seconds())

	j.mu.Lock()
	userCancel := j.userCancel
	j.mu.Unlock()
	switch {
	case err == nil:
		e.finish(j, StateDone, out, nil)
	case userCancel:
		e.finish(j, StateCancelled, out, err)
	case errors.Is(err, core.ErrInterrupted) && out != nil:
		// Deadline or drain expiry: the contract is best-so-far, not
		// failure — the partial result is served with partial=true.
		e.finish(j, StatePartial, out, err)
	case errors.Is(err, core.ErrInterrupted):
		// Interrupted before any result existed (e.g. swept from the
		// queue at the drain deadline).
		e.finish(j, StateCancelled, nil, err)
	default:
		e.finish(j, StateFailed, out, err)
	}
}

// executeChunk consumes one queue token of a streaming job. The first
// token to arrive claims the job (j.processing) and its worker folds
// pending chunks in acknowledgement order until every delivered token is
// consumed; tokens landing on a claimed job just bump the owed count and
// free their worker. The claim is what makes a stream's result a pure
// function of its append sequence even when the pool is wide: the handle
// never sees two concurrent pushes, and chunks never reorder. The job
// terminalizes only on a final chunk (Done), a typed error (Failed), a
// cancel (Cancelled), or an interrupt with best-so-far (Partial);
// otherwise it stays Running between chunks.
func (e *Engine) executeChunk(j *Job) {
	j.mu.Lock()
	j.tokens++
	if j.processing {
		// Another worker holds the claim; it will consume this token
		// before letting go. Returning keeps this worker free for other
		// jobs instead of contending on one stream.
		j.mu.Unlock()
		return
	}
	j.processing = true
	for j.tokens > 0 && !j.state.Terminal() && len(j.pending) > 0 {
		j.tokens--
		chunk, handle := j.pending[0], j.handle
		// Clear the slot: the rows are released once pushed, not when a
		// later append happens to reallocate the backing array.
		j.pending[0] = streamChunk{}
		j.pending = j.pending[1:]
		if j.state == StateQueued {
			j.state = StateRunning
			obs.Histogram(obs.Default(), "jobs.queue_wait_seconds", time.Since(j.enqueuedAt).Seconds())
			e.logState(j, StateRunning, 0, nil)
		}
		if j.userCancel {
			best := j.result
			j.mu.Unlock()
			e.finish(j, StateCancelled, best, context.Canceled)
			j.mu.Lock()
			continue // terminal now; the loop condition drains the claim
		}
		j.attempts++
		j.mu.Unlock()
		e.runChunk(j, handle, chunk)
		j.mu.Lock()
	}
	j.processing = false
	j.mu.Unlock()
}

// runChunk folds one popped chunk into the job's handle, read under j.mu
// at the pop, and settles the job if that chunk was terminal (final,
// faulty, cancelled, or interrupted). Called without j.mu held, by the
// worker holding the processing claim.
func (e *Engine) runChunk(j *Job, handle StreamHandle, chunk streamChunk) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	if e.stopped.Load() {
		cancel() // swept at the drain deadline; settle to best-so-far
	}
	tctx, tcancel := context.WithTimeout(ctx, e.resolveTimeout(j.Spec.TimeoutMS))
	defer tcancel()
	tctx = obs.NewContext(obs.WithTraceID(tctx, j.TraceID), j.col)

	var perr error
	if len(chunk.rows) > 0 {
		pushStart := time.Now()
		func() {
			defer robust.RecoverTo(&perr)
			pctx, end := obs.SpanCtx(tctx, j.col, "jobs.chunk_push")
			defer end()
			perr = handle.PushChunk(pctx, chunk.rows)
		}()
		obs.Histogram(obs.Default(), "jobs.chunk_push_seconds", time.Since(pushStart).Seconds())
	}
	// The snapshot reflects whatever the handle accepted, including a
	// partial chunk cut by the deadline, so it runs on a fresh context:
	// a cancelled push must not also starve the best-so-far refresh.
	var out *Outcome
	var serr error
	func() {
		defer robust.RecoverTo(&serr)
		out, serr = handle.Snapshot(obs.NewContext(context.Background(), j.col))
	}()

	j.mu.Lock()
	if out != nil {
		j.result = out
	}
	best := j.result
	userCancel := j.userCancel
	j.cancel = nil
	j.mu.Unlock()

	switch {
	case userCancel:
		e.finish(j, StateCancelled, best, context.Canceled)
	case perr == nil && serr != nil:
		// The push held but the snapshot did not (empty stream closed,
		// or a contained snapshot panic): the typed snapshot error is
		// the terminal error, with any earlier snapshot attached.
		e.finish(j, StateFailed, best, serr)
	case perr == nil && chunk.final:
		e.finish(j, StateDone, best, nil)
	case perr == nil:
		// Chunk folded in, stream stays open for the next append.
	case errors.Is(perr, core.ErrInterrupted) && best != nil:
		e.finish(j, StatePartial, best, perr)
	case errors.Is(perr, core.ErrInterrupted):
		e.finish(j, StateCancelled, nil, perr)
	default:
		e.finish(j, StateFailed, best, perr)
	}
}

// finish performs the terminal transition. It is the only place a job's
// state becomes terminal, and it refuses to run twice: the exactly-once
// property the fault-injection suite asserts is enforced here, not merely
// tested. It also releases what only the run needed: a batch job's
// points, and a stream's unpushed chunks and its learner, which may hold
// rows of its own (the meta ensemble keeps its window's chunks). A worker
// pushes with the learner it read at the pop, so dropping j.handle here
// never pulls it from under a push.
func (e *Engine) finish(j *Job, s State, out *Outcome, err error) {
	j.mu.Lock()
	j.finishCalls++
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.result = out
	j.err = err
	j.points, j.pending, j.handle = nil, nil, nil
	attempts := j.attempts
	close(j.done)
	j.mu.Unlock()

	e.logState(j, s, attempts, err)
	rec := obs.Default()
	switch s {
	case StateDone:
		obs.Count(rec, "jobs.done", 1)
	case StatePartial:
		obs.Count(rec, "jobs.partial", 1)
	case StateFailed:
		obs.Count(rec, "jobs.failed", 1)
		if errors.Is(err, core.ErrPanic) {
			obs.Count(rec, "jobs.panics_contained", 1)
		}
	case StateCancelled:
		obs.Count(rec, "jobs.cancelled", 1)
	}
}
