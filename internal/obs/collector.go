package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample is one per-iteration observation in a series.
type Sample struct {
	Iter  int
	Value float64
}

// SpanStat aggregates one named span: how many times it ran and the total
// wall-clock time spent inside it. Total is the only wall-clock-dependent
// quantity the Collector records; deterministic comparisons zero it via
// Snapshot.StripTimings.
type SpanStat struct {
	Count int64
	Total time.Duration
}

// treeStat is one span path's aggregate plus the name of the span that
// ends the path, which Snapshot sums the flat per-name view by.
type treeStat struct {
	name string
	SpanStat
}

// spanRingSize bounds the span instances a Collector keeps for
// WriteChromeTrace. It is well above what a typical job records (a
// meta-clustering job records 24 spans, a 40-chunk k-means stream 81);
// a longer run keeps its newest instances.
const spanRingSize = 1024

// Collector is the one recorder. A nil *Collector records nothing: every
// recording method returns at once on it, so instrumented code calls it
// unguarded. All methods are safe for concurrent use from
// internal/parallel workers; the recorded state is scheduling-independent
// because counters are additive, gauges are last-write-wins on
// deterministic values, and series are sorted by (iter, value) at
// snapshot time. Besides the aggregates, it keeps the newest spanRingSize
// span instances, timed from its creation, for WriteChromeTrace.
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]Sample
	hists    map[string]*HistStat
	tree     map[string]treeStat // keyed by slash-joined root→leaf name path
	active   map[SpanID]string   // live span id → its full path
	created  time.Time
	ring     []spanEvent // ended span instances; oldest at next once full
	next     int
	dropped  int64 // instances overwritten in ring
}

// NewCollector returns an empty Collector ready for use.
func NewCollector() *Collector {
	return &Collector{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		series:   map[string][]Sample{},
		hists:    map[string]*HistStat{},
		tree:     map[string]treeStat{},
		active:   map[SpanID]string{},
		created:  time.Now(),
	}
}

// Count adds delta to the named monotonic counter.
func (c *Collector) Count(name string, delta int64) {
	if c != nil {
		c.count(name, delta)
	}
}

func (c *Collector) count(name string, delta int64) {
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Gauge sets the named gauge to v (last write wins).
func (c *Collector) Gauge(name string, v float64) {
	if c != nil {
		c.gauge(name, v)
	}
}

func (c *Collector) gauge(name string, v float64) {
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Observe appends one (iter, v) sample to the named series, e.g. SSE per
// k-means iteration or log-likelihood per EM iteration.
func (c *Collector) Observe(name string, iter int, v float64) {
	if c != nil {
		c.observe(name, iter, v)
	}
}

func (c *Collector) observe(name string, iter int, v float64) {
	c.mu.Lock()
	c.series[name] = append(c.series[name], Sample{Iter: iter, Value: v})
	c.mu.Unlock()
}

// Histogram folds one latency observation (in seconds) into the named
// histogram; see HistogramBounds for the process-wide bucket scheme.
// Bucket counts and the integer-nanosecond sum are both additive, so the
// aggregate state — like the counters — is scheduling-independent: any
// interleaving of the same observations yields the same HistStat.
func (c *Collector) Histogram(name string, seconds float64) {
	if c != nil {
		c.histogram(name, seconds)
	}
}

func (c *Collector) histogram(name string, seconds float64) {
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &HistStat{}
		c.hists[name] = h
	}
	h.observe(seconds)
	c.mu.Unlock()
}

// HistValue returns a copy of the named histogram's state and whether it
// was ever observed.
func (c *Collector) HistValue(name string) (HistStat, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		return HistStat{}, false
	}
	return *h, true
}

// startSpan opens a named timed region and returns the function that
// closes it; SpanCtx is its one caller. id identifies this span instance
// and parent is the id of the enclosing span (0 for a root). The span is
// aggregated under its slash-joined root→leaf path of pathName elements
// (Snapshot.Tree); the path is resolved at open time from the live parent,
// so a child whose parent has already ended — or whose parent id is
// 0/unknown — roots a fresh subtree. Counts are additive and paths depend
// only on the open-time ancestry, so the tree is scheduling-independent
// for any worker count once Totals are stripped.
func (c *Collector) startSpan(name string, id, parent SpanID) func() {
	path := pathName(name)
	c.mu.Lock()
	if pp, ok := c.active[parent]; ok {
		path = pp + "/" + path
	}
	c.active[id] = path
	c.mu.Unlock()
	start := time.Now()
	return func() {
		elapsed := time.Since(start)
		c.mu.Lock()
		delete(c.active, id)
		ts := c.tree[path]
		ts.name = name
		ts.Count++
		ts.Total += elapsed
		c.tree[path] = ts
		// A parent ends after its children, so overwriting the oldest
		// instance keeps every root whose subtree overflowed the ring.
		ev := spanEvent{Name: name, ID: id, Parent: parent, Start: start.Sub(c.created), Dur: elapsed}
		if len(c.ring) < spanRingSize {
			c.ring = append(c.ring, ev)
		} else {
			c.ring[c.next] = ev
			c.next = (c.next + 1) % spanRingSize
			c.dropped++
		}
		c.mu.Unlock()
	}
}

// pathEscaper and pathUnescaper escape a span name's own '/' and '\' with
// a '\' in a tree path, and undo it.
var (
	pathEscaper   = strings.NewReplacer(`\`, `\\`, `/`, `\/`)
	pathUnescaper = strings.NewReplacer(`\\`, `\`, `\/`, `/`)
)

// pathName is name as one element of a tree path: escaped when it holds a
// '/' or a '\', so its own '/' neither splits it nor makes its path
// another's, and itself otherwise.
func pathName(name string) string {
	if !strings.ContainsAny(name, `/\`) {
		return name
	}
	return pathEscaper.Replace(name)
}

// splitPath returns the depth of a tree path, its number of unescaped
// '/', and its last element's name, unescaped.
func splitPath(path string) (depth int, name string) {
	start := 0
	for i := 0; i < len(path); i++ {
		switch path[i] {
		case '\\':
			i++
		case '/':
			depth++
			start = i + 1
		}
	}
	return depth, pathUnescaper.Replace(path[start:])
}

// WriteChromeTrace renders the span instances the Collector kept, the
// newest spanRingSize of them, as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Each span becomes one complete ("X")
// event whose tid is the id of its root ancestor, so every top-level
// operation renders as its own track with its children stacked beneath
// it. A non-empty traceID is stamped on every event as args.trace_id;
// spans that fell out of the ring are counted in
// otherData.dropped_spans.
func (c *Collector) WriteChromeTrace(w io.Writer, traceID string) error {
	c.mu.Lock()
	spans := make([]spanEvent, 0, len(c.ring))
	spans = append(spans, c.ring[c.next:]...)
	spans = append(spans, c.ring[:c.next]...)
	dropped := c.dropped
	c.mu.Unlock()
	return writeChrome(w, spans, traceID, dropped)
}

// Reset discards everything recorded so far, kept span instances
// included.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.counters = map[string]int64{}
	c.gauges = map[string]float64{}
	c.series = map[string][]Sample{}
	c.hists = map[string]*HistStat{}
	c.tree = map[string]treeStat{}
	c.active = map[SpanID]string{}
	c.ring, c.next, c.dropped = nil, 0, 0
	c.mu.Unlock()
}

// Counter returns the named counter's current value (0 when never
// touched).
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// GaugeValue returns the named gauge's current value and whether it was
// ever set.
func (c *Collector) GaugeValue(name string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.gauges[name]
	return v, ok
}

// Series returns a copy of the named series, sorted by (iter, value) so
// concurrent producers (e.g. parallel k-means restarts) yield a
// deterministic order.
func (c *Collector) Series(name string) []Sample {
	c.mu.Lock()
	src := c.series[name]
	out := make([]Sample, len(src))
	copy(out, src)
	c.mu.Unlock()
	sortSamples(out)
	return out
}

// Snapshot is a deep, deterministic copy of a Collector's state. Tree
// holds the spans keyed by their slash-joined root→leaf name path (e.g.
// "metaclust.run/metaclust.generate/kmeans.run"), reconstructing the
// call hierarchy; a name's own '/' and '\' are escaped there with a '\'
// (a root span "GET /v1/jobs" is `GET \/v1\/jobs`). Spans is the flat
// per-name view, keyed by the names as given, the sum of the Tree entries
// whose path ends in that span's name.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Series   map[string][]Sample
	Hists    map[string]HistStat
	Spans    map[string]SpanStat
	Tree     map[string]SpanStat
}

// Snapshot copies the recorded state. Series are sorted by (iter, value);
// map iteration order is irrelevant because every consumer below sorts
// keys before rendering, and Spans sums integers, which any order adds
// exactly.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Counters: make(map[string]int64, len(c.counters)),
		Gauges:   make(map[string]float64, len(c.gauges)),
		Series:   make(map[string][]Sample, len(c.series)),
		Hists:    make(map[string]HistStat, len(c.hists)),
		Spans:    make(map[string]SpanStat, len(c.tree)),
		Tree:     make(map[string]SpanStat, len(c.tree)),
	}
	for k, v := range c.counters {
		snap.Counters[k] = v
	}
	for k, v := range c.gauges {
		snap.Gauges[k] = v
	}
	for k, v := range c.series {
		dup := make([]Sample, len(v))
		copy(dup, v)
		sortSamples(dup)
		snap.Series[k] = dup
	}
	for k, v := range c.hists {
		snap.Hists[k] = *v
	}
	for path, v := range c.tree {
		snap.Tree[path] = v.SpanStat
		st := snap.Spans[v.name]
		st.Count += v.Count
		st.Total += v.Total
		snap.Spans[v.name] = st
	}
	return snap
}

// StripTimings returns a copy of the snapshot with every span Total
// zeroed, leaving only deterministic quantities. Two runs of the same
// seeded workload must then render byte-identically regardless of worker
// count — the property the obs_test concurrency suite pins.
func (s Snapshot) StripTimings() Snapshot {
	spans := make(map[string]SpanStat, len(s.Spans))
	for k, v := range s.Spans {
		spans[k] = SpanStat{Count: v.Count}
	}
	tree := make(map[string]SpanStat, len(s.Tree))
	for k, v := range s.Tree {
		tree[k] = SpanStat{Count: v.Count}
	}
	hists := make(map[string]HistStat, len(s.Hists))
	for k, v := range s.Hists {
		hists[k] = v.stripped()
	}
	out := s
	out.Spans = spans
	out.Tree = tree
	out.Hists = hists
	return out
}

// WriteSpanTree renders the hierarchical span aggregation as an indented
// text tree, two spaces per depth level, one `name count=N total=D` line
// per path, each name as given. Paths are ordered segment by segment
// (pathLess), so a parent's whole subtree renders contiguously beneath it.
// The output is deterministic for a StripTimings snapshot.
func (s Snapshot) WriteSpanTree(w io.Writer) error {
	paths := make([]string, 0, len(s.Tree))
	for path := range s.Tree {
		paths = append(paths, path)
	}
	sort.Slice(paths, func(i, j int) bool { return pathLess(paths[i], paths[j]) })
	var b strings.Builder
	for _, path := range paths {
		st := s.Tree[path]
		depth, name := splitPath(path)
		fmt.Fprintf(&b, "%s%s count=%d total=%s\n",
			strings.Repeat("  ", depth), name, st.Count, st.Total)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// pathLess orders tree paths segment by segment, comparing the segments'
// escaped bytes: a path sorts right before its own subtree, and the
// subtree ends before any sibling whose name extends the path's last name.
// Plain string order gets that wrong where the name goes on with a byte
// below '/', such as ' ', '-' or '.': it puts the root "jobs.run.retry"
// between "jobs.run" and "jobs.run/kmeans.run". Where no sibling's name
// extends another's, the two orders agree.
func pathLess(a, b string) bool {
	escaped := false
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			switch {
			case !escaped && a[i] == '/':
				return true
			case !escaped && b[i] == '/':
				return false
			}
			return a[i] < b[i]
		}
		escaped = !escaped && a[i] == '\\'
	}
	return len(a) < len(b)
}

// WriteProm renders the snapshot in the Prometheus text exposition style:
// one `name value` line per sample, names sanitised to [a-z0-9_] with a
// multiclust_ prefix, keys sorted so the dump is reproducible. Spans emit
// _count and _seconds, series emit _points plus _first/_last values, and
// histograms emit the standard cumulative _bucket{le="..."} ladder plus
// _sum and _count.
func (s Snapshot) WriteProm(w io.Writer) error {
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%s_total %d\n", promName(k), s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%s %g\n", promName(k), s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Hists) {
		h := s.Hists[k]
		name := promName(k)
		var cum int64
		for i, n := range h.Counts {
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, histogramLabels[i], cum)
		}
		fmt.Fprintf(&b, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}
	for _, k := range sortedKeys(s.Series) {
		ser := s.Series[k]
		fmt.Fprintf(&b, "%s_points %d\n", promName(k), len(ser))
		if len(ser) > 0 {
			fmt.Fprintf(&b, "%s_first %g\n", promName(k), ser[0].Value)
			fmt.Fprintf(&b, "%s_last %g\n", promName(k), ser[len(ser)-1].Value)
		}
	}
	for _, k := range sortedKeys(s.Spans) {
		sp := s.Spans[k]
		fmt.Fprintf(&b, "%s_count %d\n", promName(k), sp.Count)
		fmt.Fprintf(&b, "%s_seconds %g\n", promName(k), sp.Total.Seconds())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteProm renders the Collector's current state; see Snapshot.WriteProm.
func (c *Collector) WriteProm(w io.Writer) error {
	return c.Snapshot().WriteProm(w)
}

func sortSamples(s []Sample) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Iter != s[j].Iter {
			return s[i].Iter < s[j].Iter
		}
		return s[i].Value < s[j].Value
	})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps a dotted event name to a Prometheus-safe metric name:
// "kmeans.sse" -> "multiclust_kmeans_sse".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("multiclust_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
