package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Structured JSONL logging. Every line is one JSON object with a fixed
// field prefix — ts (UTC, microsecond precision), level, event — followed
// by the caller's fields in exactly the order supplied, hand-rendered so
// the byte layout is deterministic (no map iteration, no reflection).
// The clock is injectable, making log output byte-stable in tests. A nil
// *Logger is a valid no-op receiver, so call sites never guard.
//
// The two service events and their required fields (enforced by
// ValidateLogLine, exercised by `make logs-check`):
//
//	http.request  method route status bytes dur_ms trace   [job]
//	job.state     job state                               [trace] [err] [attempts]
//
// where job.state's state is one of queued, running, partial, done,
// failed, cancelled.

// LogLevel orders log severities. The zero value is LogInfo so a
// zero-configured logger is quiet about debug chatter.
type LogLevel int8

const (
	LogInfo LogLevel = iota
	LogDebug
	LogWarn
	LogError
)

// severity maps a level to its rank for min-level filtering (String
// order and filtering order differ because the zero value is LogInfo).
func (l LogLevel) severity() int {
	switch l {
	case LogDebug:
		return 0
	case LogInfo:
		return 1
	case LogWarn:
		return 2
	default:
		return 3
	}
}

// String returns the lowercase level name used on the wire.
func (l LogLevel) String() string {
	switch l {
	case LogDebug:
		return "debug"
	case LogInfo:
		return "info"
	case LogWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLogLevel maps a level name (as accepted by the -log-level flag)
// to its LogLevel.
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LogDebug, nil
	case "info", "":
		return LogInfo, nil
	case "warn", "warning":
		return LogWarn, nil
	case "error":
		return LogError, nil
	}
	return LogInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// LogField is one pre-rendered key/value pair. Construct with LStr, LInt
// or LDurMS; the value is rendered at construction so the logger's hot
// path only concatenates.
type LogField struct {
	key string
	val string
}

// LStr is a string-valued log field.
func LStr(key, v string) LogField { return LogField{key: key, val: strconv.Quote(v)} }

// LInt is an integer-valued log field.
func LInt(key string, v int64) LogField { return LogField{key: key, val: strconv.FormatInt(v, 10)} }

// LDurMS renders a duration as fractional milliseconds with fixed
// three-decimal precision — fixed, not shortest, so column alignment and
// byte stability survive value changes (1.500 not 1.5).
func LDurMS(key string, d time.Duration) LogField {
	return LogField{key: key, val: strconv.FormatFloat(float64(d.Nanoseconds())/1e6, 'f', 3, 64)}
}

// logTimeLayout renders timestamps in UTC at microsecond precision with a
// fixed width, so lines sort lexicographically by time.
const logTimeLayout = "2006-01-02T15:04:05.000000Z"

// Logger writes leveled JSONL log lines to one writer under a mutex.
// Lines below the minimum level are dropped before rendering. The first
// write error is retained (later lines dropped) — check Err.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min LogLevel
	now func() time.Time
	err error
}

// NewLogger returns a Logger writing to w, dropping lines below min.
func NewLogger(w io.Writer, min LogLevel) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// SetClock replaces the timestamp source (tests inject a fixed clock for
// byte-stable output). The clock's result is rendered in UTC.
func (l *Logger) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Enabled reports whether a line at the given level would be written.
// Callers building expensive field sets can gate on it; plain call sites
// just call Log and let the level filter drop the line.
func (l *Logger) Enabled(level LogLevel) bool {
	if l == nil {
		return false
	}
	return level.severity() >= l.min.severity()
}

// Log writes one line at the given level. Field order on the wire is the
// argument order. Safe on a nil receiver (no-op).
func (l *Logger) Log(level LogLevel, event string, fields ...LogField) {
	if l == nil || level.severity() < l.min.severity() {
		return
	}
	var b strings.Builder
	b.Grow(96 + 24*len(fields))
	b.WriteString(`{"ts":"`)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	b.WriteString(l.now().UTC().Format(logTimeLayout))
	b.WriteString(`","level":"`)
	b.WriteString(level.String())
	b.WriteString(`","event":`)
	b.WriteString(strconv.Quote(event))
	for _, f := range fields {
		b.WriteByte(',')
		b.WriteString(strconv.Quote(f.key))
		b.WriteByte(':')
		b.WriteString(f.val)
	}
	b.WriteString("}\n")
	if _, err := io.WriteString(l.w, b.String()); err != nil {
		l.err = fmt.Errorf("obs: log write: %w", err)
	}
}

// Debug logs at debug level.
func (l *Logger) Debug(event string, fields ...LogField) { l.Log(LogDebug, event, fields...) }

// Info logs at info level.
func (l *Logger) Info(event string, fields ...LogField) { l.Log(LogInfo, event, fields...) }

// Warn logs at warn level.
func (l *Logger) Warn(event string, fields ...LogField) { l.Log(LogWarn, event, fields...) }

// Error logs at error level.
func (l *Logger) Error(event string, fields ...LogField) { l.Log(LogError, event, fields...) }

// Err returns the first write error encountered, or nil.
func (l *Logger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// jobStates are the legal values of a job.state line's state field —
// exactly the job lifecycle states of internal/jobs.
var jobStates = map[string]bool{
	"queued": true, "running": true, "partial": true,
	"done": true, "failed": true, "cancelled": true,
}

// ValidateLogLine checks one JSONL log line against the documented
// schema: well-formed JSON object, fixed-layout ts, known level, known
// event, and the event's required fields present with the right JSON
// types. It is the contract `make logs-check` enforces in CI.
func ValidateLogLine(line []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		return fmt.Errorf("obs: log line is not a JSON object: %w", err)
	}
	ts, err := logStringField(m, "ts")
	if err != nil {
		return err
	}
	if _, err := time.Parse(logTimeLayout, ts); err != nil {
		return fmt.Errorf("obs: log ts %q does not match layout %s", ts, logTimeLayout)
	}
	level, err := logStringField(m, "level")
	if err != nil {
		return err
	}
	switch level {
	case "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("obs: unknown log level %q", level)
	}
	event, err := logStringField(m, "event")
	if err != nil {
		return err
	}
	switch event {
	case "http.request":
		for _, k := range []string{"method", "route", "trace"} {
			if _, err := logStringField(m, k); err != nil {
				return err
			}
		}
		for _, k := range []string{"status", "bytes", "dur_ms"} {
			if err := logNumberField(m, k); err != nil {
				return err
			}
		}
	case "job.state":
		state, err := logStringField(m, "state")
		if err != nil {
			return err
		}
		if !jobStates[state] {
			return fmt.Errorf("obs: job.state line has unknown state %q", state)
		}
		if _, err := logStringField(m, "job"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("obs: unknown log event %q", event)
	}
	return nil
}

func logStringField(m map[string]json.RawMessage, key string) (string, error) {
	raw, ok := m[key]
	if !ok {
		return "", fmt.Errorf("obs: log line missing required field %q", key)
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", fmt.Errorf("obs: log field %q is not a string", key)
	}
	return s, nil
}

func logNumberField(m map[string]json.RawMessage, key string) error {
	raw, ok := m[key]
	if !ok {
		return fmt.Errorf("obs: log line missing required field %q", key)
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("obs: log field %q is not a number", key)
	}
	return nil
}
