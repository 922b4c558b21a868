package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// spanEvent is one ended span instance: the unit WriteChromeTrace
// renders. Start is the offset from the Collector's creation.
type spanEvent struct {
	Name       string
	ID, Parent SpanID
	Start, Dur time.Duration
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

// writeChrome renders spans as one Chrome trace document, with args.trace_id
// on every event when traceID is set and otherData.dropped_spans when
// dropped is positive. Events are sorted by (start, id), so the output is
// independent of span end order.
func writeChrome(w io.Writer, spans []spanEvent, traceID string, dropped int64) error {
	parentOf := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	// root walks to the top of a span's ancestry; a zero parent, or one
	// not among spans, ends the walk. A parent opens before its child, so
	// its id is smaller and the walk cannot cycle.
	root := func(id SpanID) SpanID {
		for {
			p, ok := parentOf[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
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
