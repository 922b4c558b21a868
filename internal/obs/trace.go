package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// TraceWriter is a Recorder that streams every event to w as one JSON
// object per line (JSONL), suitable for `cmd/multiclust -trace out.jsonl`
// and offline analysis. Events are written in arrival order under a
// mutex; span events carry their instance id, parent id, start offset
// from writer creation (t_us, microseconds) and wall-clock duration
// (dur_ns), enough to reconstruct the span tree offline or convert it
// with WriteChromeTrace. The first write error is retained (and all
// later events dropped) — check Err() after the run.
type TraceWriter struct {
	mu    sync.Mutex
	w     io.Writer
	err   error
	start time.Time
}

// NewTraceWriter wraps w. The caller owns buffering and closing of w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, start: time.Now()}
}

// Count implements Recorder.
func (t *TraceWriter) Count(name string, delta int64) {
	t.emit(`{"type":"count","name":` + strconv.Quote(name) + `,"delta":` + strconv.FormatInt(delta, 10))
}

// Gauge implements Recorder.
func (t *TraceWriter) Gauge(name string, v float64) {
	t.emit(`{"type":"gauge","name":` + strconv.Quote(name) + `,"value":` + jsonFloat(v))
}

// Observe implements Recorder.
func (t *TraceWriter) Observe(name string, iter int, v float64) {
	t.emit(`{"type":"observe","name":` + strconv.Quote(name) +
		`,"iter":` + strconv.Itoa(iter) + `,"value":` + jsonFloat(v))
}

// Histogram implements Recorder. The raw observation is emitted (value in
// seconds); bucketing is the Collector's concern — the trace keeps full
// resolution for offline percentile analysis.
func (t *TraceWriter) Histogram(name string, seconds float64) {
	t.emit(`{"type":"hist","name":` + strconv.Quote(name) + `,"value":` + jsonFloat(seconds))
}

// StartSpan implements Recorder. The event line is emitted when the span
// ends, so a parent's line follows its children's; consumers rebuild the
// tree from the id/parent fields, not from line order.
func (t *TraceWriter) StartSpan(name string, id, parent SpanID) func() {
	spanStart := time.Now()
	return func() {
		t.emit(`{"type":"span","name":` + strconv.Quote(name) +
			`,"id":` + strconv.FormatUint(uint64(id), 10) +
			`,"parent":` + strconv.FormatUint(uint64(parent), 10) +
			`,"t_us":` + strconv.FormatInt(spanStart.Sub(t.start).Microseconds(), 10) +
			`,"dur_ns":` + strconv.FormatInt(time.Since(spanStart).Nanoseconds(), 10))
	}
}

// Err returns the first write error encountered, or nil.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// emit closes the partial JSON object and writes the finished line.
// Callers pass the line up to — but excluding — the final `}`.
func (t *TraceWriter) emit(partial string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := io.WriteString(t.w, partial+"}\n"); err != nil {
		t.err = fmt.Errorf("obs: trace write: %w", err)
	}
}

// jsonFloat renders v as a JSON number. JSON has no NaN/Inf literals, so
// non-finite values are quoted strings ("NaN", "+Inf", "-Inf") — lossy
// for generic JSON tooling but unambiguous for humans, and far better
// than emitting invalid JSON mid-trace.
func jsonFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return `"NaN"`
	case math.IsInf(v, 1):
		return `"+Inf"`
	case math.IsInf(v, -1):
		return `"-Inf"`
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
