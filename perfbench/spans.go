package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"tracedbg/internal/obs"
)

// span is one timed call from the benchmark into a layer. Spans of one
// benchmark operation share Op; Parent indexes the enclosing span (-1 for
// an operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name belongs to: the text before the first
// dot ("store.OpenMmap" → "store").
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// counters is a flattened obs registry snapshot: every tracedbg_* metric
// by name, label values summed.
type counters map[string]float64

func snapshotCounters() counters {
	out := make(counters)
	for _, m := range obs.Default().Snapshot().Metrics {
		if m.Type == "histogram" {
			out[m.Name] += float64(m.Count)
			continue
		}
		out[m.Name] += m.Value
	}
	return out
}

// tracer is the benchmark's in-memory span recorder. A nil tracer records
// nothing and costs one branch per call, so the untraced end-to-end pass
// runs the same code.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	deltas map[string]counters // op group → summed counter differences
	nextOp int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), deltas: make(map[string]counters)}
}

func (t *tracer) enabled() bool { return t != nil }

// op allocates a fresh operation id.
func (t *tracer) op() int64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its handle (-1 when disabled).
func (t *tracer) begin(name string, op int64, parent int) int {
	if !t.enabled() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 || !t.enabled() {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call records fn as one span.
func (t *tracer) call(name string, op int64, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// counters snapshots the obs registry when tracing (nil otherwise).
func (t *tracer) counters() counters {
	if !t.enabled() {
		return nil
	}
	return snapshotCounters()
}

// addDelta folds after−before into the group's counter differences.
func (t *tracer) addDelta(group string, before, after counters) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.deltas[group]
	if d == nil {
		d = make(counters)
		t.deltas[group] = d
	}
	for k, v := range after {
		d[k] += v - before[k]
	}
}

// delta returns the summed difference of counter name in group.
func (t *tracer) delta(group, name string) float64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deltas[group]["tracedbg_"+name]
}

// durations returns every duration of spans with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	if !t.enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].End > 0 {
			out = append(out, ms(t.spans[i].dur()))
		}
	}
	return out
}

// total sums the durations of spans with the given name, in ms.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, d := range t.durations(name) {
		s += d
	}
	return s
}

// childTimes returns, per span, the time covered by its direct children.
// The caller holds t.mu.
func (t *tracer) childTimes() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	return child
}

// selfTimes returns each layer's self time in ms: span time minus the
// time covered by its direct child spans.
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	if !t.enabled() {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTimes()
	for i := range t.spans {
		out[t.spans[i].layer()] += ms(t.spans[i].dur() - child[i])
	}
	return out
}

// unattributed is the share of root ("bench.*") span time not covered by a
// direct child span in some layer.
func (t *tracer) unattributed() float64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := t.childTimes()
	var root, covered time.Duration
	for i := range t.spans {
		if t.spans[i].Parent < 0 && t.spans[i].layer() == "bench" {
			root += t.spans[i].dur()
			covered += child[i]
		}
	}
	return ratio(float64(root-covered), float64(root))
}

// write dumps every span and counter difference as JSON.
func (t *tracer) write(path string) error {
	if !t.enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(struct {
		Spans  []span              `json:"spans"`
		Deltas map[string]counters `json:"counter_deltas"`
	}{t.spans, t.deltas})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
