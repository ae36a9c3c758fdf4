// Command perfbench drives the tracedbg pipeline through its public entry
// points at shipped defaults and reports end-to-end and per-layer metrics.
//
//	perfbench --workload <ingest|live|query|replay|all> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is generated from --seed, checks every answer it gets, and
// prints its metrics one per line ("<workload> <metric> <value> <unit>")
// followed, as the last line, by one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (see endToEnd); with
// --trace 1 the workload runs once untraced and once under the span
// recorder, and the metrics are the per-layer ones (see perLayer). See
// NOTES.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input-size multiplier: 1 in the command, small in tests
	work     string  // scratch root, removed after the run
	out      io.Writer
}

// scaled multiplies a size by the scale, keeping it at least min.
func (c *config) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		return min
	}
	return v
}

// metricDef names a reported metric with its unit and better-direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics every workload reports with
// tracing off; NOTES.md maps each onto the workload's own operation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"primary_p50_ms", "ms", "lower"},
	{"primary_tail_ms", "ms", "lower"},
	{"secondary_p50_ms", "ms", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer are the traced-run metrics. A workload that never calls into a
// metric's layer reports it as 0.
var perLayer = []metricDef{
	{"client.emit_ns_per_record", "ns", "lower"},
	{"client.flush_us", "us", "lower"},
	{"client.close_drain_ms", "ms", "lower"},
	{"client.spill_frac", "ratio", "lower"},
	{"client.spill_bytes_per_record", "B", "lower"},
	{"client.window_stalls_per_krec", "count", "lower"},
	{"client.unacked_p50", "records", "lower"},
	{"daemon.queue_p50", "records", "lower"},
	{"daemon.finalize_ms", "ms", "lower"},
	{"daemon.ingest_stalls", "count", "lower"},
	{"stream.dropped_frac", "ratio", "lower"},
	{"trace.bytes_per_record", "B", "lower"},
	{"trace.sidecar_bytes_per_record", "B", "lower"},
	{"trace.chunks_per_krec", "count", "lower"},
	{"trace.fsyncs_per_krec", "count", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.index_fallback_frac", "ratio", "lower"},
	{"store.index_seeks_per_find", "count", "lower"},
	{"store.decoded_per_match.seek", "records", "lower"},
	{"store.decoded_per_match.scan", "records", "lower"},
	{"store.tail_polls_per_krec", "count", "lower"},
	{"query.plan_ms.seek", "ms", "lower"},
	{"query.plan_ms.scan", "ms", "lower"},
	{"query.evaluated_per_match", "records", "lower"},
	{"query.ranks_pruned_frac", "ratio", "higher"},
	{"analysis.occurrence_ms", "ms", "lower"},
	{"analysis.deadlock_ms", "ms", "lower"},
	{"analysis.traffic_ms", "ms", "lower"},
	{"graph.build_ms.app", "ms", "lower"},
	{"graph.build_ms.varied", "ms", "lower"},
	{"causality.order_ms", "ms", "lower"},
	{"core.stopline_ms", "ms", "lower"},
	{"debug.replay_launch_ms", "ms", "lower"},
	{"debug.wait_stopped_ms", "ms", "lower"},
	{"debug.undo_ms", "ms", "lower"},
	{"replay.enforced_frac", "ratio", "higher"},
	{"replay.waited_per_stop", "count", "lower"},
	{"mp.messages_per_run", "count", "lower"},
	{"mp.wildcard_recvs_per_run", "count", "lower"},
	{"instr.events_per_run", "count", "lower"},
	{"instr.slowdown", "ratio", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.unattributed_frac", "ratio", "lower"},
}

// audit counts attempted and failed operations, with a name per failure
// kind. Checks never abort a run; they count here.
type audit struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   map[string]int64
}

func newAudit() *audit { return &audit{reasons: make(map[string]int64)} }

// try counts n attempted operations.
func (a *audit) try(n int64) {
	a.mu.Lock()
	a.attempted += n
	a.mu.Unlock()
}

// fail counts n failed operations under a name (they must also have been
// counted by try).
func (a *audit) fail(what string, n int64) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	a.failed += n
	a.reasons[what] += n
	a.mu.Unlock()
}

// named is one metric under the workload-specific name NOTES.md documents,
// for the human-readable report.
type named struct {
	name  string
	value float64
	unit  string
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	e2e    map[string]float64 // endToEnd values except setup_s
	named  []named            // workload-specific metrics for the report
	layers map[string]float64 // perLayer values (traced pass only)
	unit   float64            // mean wall ms per operation, for trace overhead
}

// bench is one workload: set up (timed, repeated), then measured passes.
type bench interface {
	setup() error
	teardown()
	run(tr *tracer, a *audit) *outcome
}

var workloads = map[string]func(*config) bench{
	"ingest": newIngest,
	"live":   newLive,
	"query":  newQuery,
	"replay": newReplay,
}

// setupReps is how many times set-up runs per invocation; setup_s is the
// median.
const setupReps = 7

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "ingest, live, query, replay, or all")
	flag.Int64Var(&c.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced pass")
	flag.StringVar(&c.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.Parse()
	c.trace = traceFlag == 1
	c.scale = 1
	c.out = os.Stdout
	res, err := runAll(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	body, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(body))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runAll runs the named workload, or every workload for "all" (metrics
// then carry a "<workload>." prefix).
func runAll(c *config) (*result, error) {
	names := []string{c.workload}
	if c.workload == "all" {
		names = []string{"ingest", "live", "query", "replay"}
	}
	total := &result{Metrics: make(map[string]metricValue)}
	for _, name := range names {
		if workloads[name] == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		wc := *c
		wc.workload = name
		res, err := runWorkload(&wc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			return res, nil
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	total.Correct = total.Failed == 0 && total.Attempted > 0
	return total, nil
}

// runWorkload sets up, measures and reports one workload.
func runWorkload(c *config) (*result, error) {
	if c.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(c.work, c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	wc := *c
	wc.work = work

	reps := setupReps
	if c.trace {
		reps = 1
	}
	var b bench
	var setups []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.teardown()
		}
		b = workloads[c.workload](&wc)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()

	a := newAudit()
	res := &result{Metrics: make(map[string]metricValue)}
	report := func(name string, v float64, unit string) {
		fmt.Fprintf(c.out, "%-7s %-34s %14.4f %s\n", c.workload, name, v, unit)
	}
	if !c.trace {
		o := b.run(nil, a)
		o.e2e["setup_s"] = median(setups)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{o.e2e[m.name], m.unit}
		}
		report("setup_s", median(setups), "s")
		for _, n := range o.named {
			report(n.name, n.value, n.unit)
		}
	} else {
		plain := b.run(nil, a)
		tr := newTracer()
		o := b.run(tr, a)
		o.layers["bench.trace_overhead_frac"] = ratio(o.unit, plain.unit) - 1
		o.layers["bench.unattributed_frac"] = tr.unattributed()
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
			report(m.name, o.layers[m.name], m.unit)
		}
		self := tr.selfTimes()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			report("self_ms."+l, self[l], "ms")
		}
		path := filepath.Join(c.work, fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.out, "%-7s spans written to %s\n", c.workload, path)
	}
	report("failed_frac", ratio(float64(a.failed), float64(a.attempted)), "ratio")
	reasons := make([]string, 0, len(a.reasons))
	for r := range a.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(c.out, "%-7s failed: %s x%d\n", c.workload, r, a.reasons[r])
	}
	res.Attempted, res.Failed = a.attempted, a.failed
	res.Correct = a.failed == 0 && a.attempted > 0
	return res, nil
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
