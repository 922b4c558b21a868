package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// spanEvent is one ended span instance: the unit both WriteChromeTrace
// entry points render. Start is the offset from the recorder's creation.
type spanEvent struct {
	Name       string
	ID, Parent SpanID
	Start, Dur time.Duration
}

// traceSpanLine is the subset of a TraceWriter JSONL line needed to
// rebuild the span tree; non-span lines and extra fields are ignored.
type traceSpanLine struct {
	Type   string `json:"type"`
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	TUs    int64  `json:"t_us"`
	DurNs  int64  `json:"dur_ns"`
}

// chromeEvent is one Chrome trace-event object. Ph "X" is a complete
// event: a begin timestamp (ts, microseconds) plus a duration (dur).
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  SpanID     `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent"`
	TraceID string `json:"trace_id,omitempty"`
}

// WriteChromeTrace converts a JSONL trace (as written by TraceWriter)
// read from r into the Chrome trace-event JSON format on w, loadable in
// chrome://tracing or Perfetto. Only span events convert — each becomes
// one complete ("X") event whose tid is the id of its root ancestor, so
// every top-level operation renders as its own track with its children
// stacked beneath it. Count/gauge/observe lines are skipped. Events are
// sorted by (start, id) so the output is independent of span end order.
func WriteChromeTrace(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var spans []spanEvent
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev traceSpanLine
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("obs: chrome trace: line %d: %w", lineNo, err)
		}
		if ev.Type == "span" {
			spans = append(spans, spanEvent{
				Name: ev.Name, ID: SpanID(ev.ID), Parent: SpanID(ev.Parent),
				Start: time.Duration(ev.TUs) * time.Microsecond, Dur: time.Duration(ev.DurNs),
			})
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return writeChrome(w, spans, "", 0)
}

// writeChrome renders spans as one Chrome trace document, with args.trace_id
// on every event when traceID is set and otherData.dropped_spans when
// dropped is positive. It reorders spans.
func writeChrome(w io.Writer, spans []spanEvent, traceID string, dropped int64) error {
	parentOf := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	// root walks to the top of a span's ancestry; a missing or zero
	// parent ends the walk, and the hop bound guards against id cycles
	// from a corrupted trace.
	root := func(id SpanID) SpanID {
		cur := id
		for hops := 0; hops <= len(spans); hops++ {
			p, ok := parentOf[cur]
			if !ok || p == 0 {
				return cur
			}
			cur = p
		}
		return id
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	doc := struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		OtherData       map[string]int64 `json:"otherData,omitempty"`
		TraceEvents     []chromeEvent    `json:"traceEvents"`
	}{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	if dropped > 0 {
		doc.OtherData = map[string]int64{"dropped_spans": dropped}
	}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(s.Start.Microseconds()),
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  root(s.ID),
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, TraceID: traceID},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
