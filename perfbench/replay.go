package main

import (
	"fmt"
	"math/rand"
	"time"

	"tracedbg/internal/core"
	"tracedbg/internal/debug"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

// The replay workload: the paper's debugging loop, closed, one caller. A
// seeded LU run (4 ranks, about 20k events) is recorded; a seeded sequence
// of vertical, past-frontier and future-frontier stoplines follows, each
// replayed under enforced matching until every rank is parked; every
// undoEvery-th stop is followed by an Undo back to it.
const (
	replayRanks     = 4
	replayEvents    = 20000
	stopsPerRecord  = 30
	undoEvery       = 4
	stopWaitTimeout = 2 * time.Second // about 100× the p90 stop
)

type replayBench struct {
	c    *config
	body func(*instr.Ctx) // the seeded LU run
	rng  *rand.Rand
}

func newReplay(c *config) bench { return &replayBench{c: c} }

// setup sizes the LU run for the seed (two short calibration runs) and
// records it once, so lazy initialization is done before timing.
func (w *replayBench) setup() error {
	iters, err := appIters("lu", replayRanks, w.c.scaled(replayEvents, 300), w.c.seed)
	if err != nil {
		return err
	}
	if w.body, err = appBody("lu", iters, w.c.seed); err != nil {
		return err
	}
	return core.New(w.target()).Record()
}

func (w *replayBench) teardown() {}

func (w *replayBench) target() debug.Target {
	return debug.Target{
		Cfg:   mp.Config{NumRanks: replayRanks},
		Level: instr.LevelAll,
		Body:  w.body,
	}
}

// replayStats accumulates one pass.
type replayStats struct {
	stopMs, recordMs, slowdown, heap []float64
	records, stops, undos            int
	probe                            time.Duration // heap readings, excluded from wall time
}

func (w *replayBench) run(tr *tracer, a *audit) *outcome {
	st := &replayStats{}
	w.rng = rand.New(rand.NewSource(w.c.seed))
	budget := time.Duration(w.c.seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < budget {
		d, ok := w.record(tr, a, st)
		if !ok {
			break
		}
		for i := 0; i < stopsPerRecord && time.Since(start) < budget; i++ {
			s := w.stop(tr, a, st, d)
			if s == nil {
				continue
			}
			if i%undoEvery == undoEvery-1 {
				w.undo(tr, a, st, s)
			}
			s.Kill()
			s.Wait() //nolint:errcheck // killed on purpose; the abort error is expected
		}
	}
	wall := time.Since(start) - st.probe
	ops := float64(st.stops + st.undos)
	o := &outcome{
		e2e: map[string]float64{
			"throughput_per_s": ops / wall.Seconds(),
			"primary_p50_ms":   median(st.stopMs),
			"primary_tail_ms":  quantile(st.stopMs, 0.90),
			"secondary_p50_ms": median(st.recordMs),
			"heap_mb":          median(st.heap),
		},
		named: []named{
			{"record_ms", median(st.recordMs), "ms"},
			{"stop_p50_ms", median(st.stopMs), "ms"},
			{"stop_p90_ms", quantile(st.stopMs, 0.90), "ms"},
			{"stops", float64(st.stops), "count"},
			{"undos", float64(st.undos), "count"},
			{"records", float64(st.records), "count"},
		},
		layers: map[string]float64{},
		unit:   mean(st.stopMs),
	}
	if tr.enabled() {
		l := o.layers
		l["causality.order_ms"] = median(tr.durations("causality.Order"))
		l["core.stopline_ms"] = median(tr.durations("core.StopLine"))
		l["debug.replay_launch_ms"] = median(tr.durations("debug.Replay"))
		l["debug.wait_stopped_ms"] = median(tr.durations("debug.WaitAllStopped"))
		l["debug.undo_ms"] = median(tr.durations("debug.Undo"))
		enforced := tr.delta("stop", "replay_picks_enforced_total")
		l["replay.enforced_frac"] = ratio(enforced, enforced+tr.delta("stop", "replay_picks_fallback_total"))
		l["replay.waited_per_stop"] = ratio(tr.delta("stop", "replay_picks_waited_total"), float64(st.stops))
		runs := float64(st.records)
		l["mp.messages_per_run"] = ratio(tr.delta("record", "mp_messages_total"), runs)
		l["mp.wildcard_recvs_per_run"] = ratio(tr.delta("record", "mp_wildcard_recvs_total"), runs)
		l["instr.events_per_run"] = ratio(tr.delta("record", "instr_records_emitted_total"), runs)
		l["instr.slowdown"] = median(st.slowdown)
	}
	return o
}

// record records the target under a fresh debugger and computes its
// causality; false when recording failed.
func (w *replayBench) record(tr *tracer, a *audit, st *replayStats) (*core.Debugger, bool) {
	a.try(1)
	d := core.New(w.target())
	before := tr.counters()
	op := tr.op()
	root := tr.begin("bench.record", op, -1)
	var err error
	t0 := time.Now()
	tr.call("core.Record", op, root, func() { err = d.Record() })
	rec := time.Since(t0)
	tr.end(root)
	tr.addDelta("record", before, tr.counters())
	if err != nil {
		a.fail("record: "+firstLine(err), 1)
		return nil, false
	}
	st.records++
	st.recordMs = append(st.recordMs, ms(rec))
	if tr.enabled() {
		st.slowdown = append(st.slowdown, float64(rec)/float64(w.bare()))
	}
	root = tr.begin("bench.order", op, -1)
	tr.call("causality.Order", op, root, func() { _, err = d.Order() })
	tr.end(root)
	if err != nil {
		a.fail("order: "+firstLine(err), 1)
		return nil, false
	}
	t0 = time.Now()
	st.heap = append(st.heap, liveHeapMiB()) // the recorded session is live here
	st.probe += time.Since(t0)
	return d, true
}

// bare times the same body with instrumentation off.
func (w *replayBench) bare() time.Duration {
	t0 := time.Now()
	err := instr.New(replayRanks, instr.NullSink{}, 0).Run(mp.Config{NumRanks: replayRanks}, w.body)
	if err != nil {
		return 0
	}
	return time.Since(t0)
}

// stopPlan draws the next stopline request: its kind (0 vertical, 1 past
// frontier, 2 future frontier) and either a virtual time or an event.
func stopPlan(rng *rand.Rand, hist *trace.Trace) (kind int, t int64, ev trace.EventID) {
	kind = rng.Intn(3)
	if kind == 0 {
		var last int64
		for r := 0; r < hist.NumRanks(); r++ {
			if recs := hist.Rank(r); len(recs) > 0 && recs[len(recs)-1].End > last {
				last = recs[len(recs)-1].End
			}
		}
		return kind, rng.Int63n(last + 1), ev
	}
	ev.Rank = rng.Intn(hist.NumRanks())
	ev.Index = rng.Intn(len(hist.Rank(ev.Rank)))
	return kind, 0, ev
}

// stop computes a seeded stopline, replays to it and waits until every
// rank is parked; it returns the parked session (nil on failure).
func (w *replayBench) stop(tr *tracer, a *audit, st *replayStats, d *core.Debugger) *debug.Session {
	a.try(1)
	kind, t, ev := stopPlan(w.rng, d.Trace())
	before := tr.counters()
	op := tr.op()
	root := tr.begin("bench.stop", op, -1)
	t0 := time.Now()
	var sl core.StopLine
	var err error
	tr.call("core.StopLine", op, root, func() {
		switch kind {
		case 0:
			sl, err = d.VerticalStopLine(t)
		case 1:
			sl, err = d.PastFrontierStopLine(ev)
		default:
			sl, err = d.FutureFrontierStopLine(ev)
		}
	})
	var s *debug.Session
	if err == nil {
		tr.call("debug.Replay", op, root, func() { s, err = d.Replay(sl) })
	}
	var stops []debug.Stop
	if err == nil {
		tr.call("debug.WaitAllStopped", op, root, func() { stops, err = s.WaitAllStopped(stopWaitTimeout) })
	}
	lat := time.Since(t0)
	tr.end(root)
	tr.addDelta("stop", before, tr.counters())
	if err != nil {
		a.fail(fmt.Sprintf("stop-%s: %s", core.StopLineKind(kind), firstLine(err)), 1)
		if s != nil {
			s.Kill()
			s.Wait() //nolint:errcheck // killed on purpose
		}
		return nil
	}
	st.stops++
	st.stopMs = append(st.stopMs, ms(lat))
	if !parkedAt(stops, sl.Markers) {
		a.fail(fmt.Sprintf("stop-%s-wrong-marker", core.StopLineKind(kind)), 1)
	}
	return s
}

// undo resumes the parked session, then undoes back to where it was
// parked; the undone session must park at the same markers.
func (w *replayBench) undo(tr *tracer, a *audit, st *replayStats, s *debug.Session) {
	a.try(1)
	want := replay.FromCounters(s.Counters())
	before := tr.counters()
	op := tr.op()
	root := tr.begin("bench.undo", op, -1)
	s.ContinueAll()
	var u *debug.Session
	var stops []debug.Stop
	var err error
	tr.call("debug.Undo", op, root, func() {
		if u, err = s.Undo(); err == nil {
			stops, err = u.WaitAllStopped(stopWaitTimeout)
		}
	})
	tr.end(root)
	tr.addDelta("undo", before, tr.counters())
	if u != nil {
		defer func() {
			u.Kill()
			u.Wait() //nolint:errcheck // killed on purpose
		}()
	}
	if err != nil {
		a.fail("undo: "+firstLine(err), 1)
		return
	}
	st.undos++
	if !parkedAt(stops, want) {
		a.fail("undo-wrong-marker", 1)
	}
}

// parkedAt reports whether every rank is stopped at the marker the stop
// set names (a zero threshold parks a rank at its first event, marker 1).
func parkedAt(stops []debug.Stop, want replay.StopSet) bool {
	if len(stops) != len(want) {
		return false
	}
	for _, s := range stops {
		seq := want.Seq(s.Rank)
		if seq == 0 {
			seq = 1
		}
		if s.Marker != seq {
			return false
		}
	}
	return true
}
