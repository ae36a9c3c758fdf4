package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"tracedbg/internal/analysis"
	"tracedbg/internal/core"
	"tracedbg/internal/graph"
	"tracedbg/internal/query"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// The query workload: one closed-loop caller over a store laid out the
// way the daemon writes one (sequential 4 MiB segments with sidecars).
// Every operation opens its session afresh, as tdbg -in and tanalyze do.
const (
	queryAppRanks     = 8
	queryAppRecords   = 60000
	queryVariedRanks  = 8
	queryVariedRecord = 12000
	querySegmentBytes = 4 << 20
	// Every scanCheckEvery-th find is also run through the unindexed
	// single-pass executor and must agree with the indexed answer.
	scanCheckEvery = 8
)

// qsession is one session of the query store.
type qsession struct {
	name     string
	manifest string
	tr       *trace.Trace // the corpus, for brute-force answers
	// locs lists (rank, file, line) sites with their execution counts,
	// for occurrence lookups.
	locs []site
	// expected analysis answers, computed on first use
	want *analyzeAnswer
}

type site struct {
	rank  int
	file  string
	line  int
	count int
}

type analyzeAnswer struct {
	deadlock, traffic string
	nodes, arcs       int
}

// qop is one generated operation.
type qop struct {
	group string // "seek", "scan" or "analyze"
	sess  int
	expr  string // finds
	occ   site   // occurrence lookups (seek group) when occ.count > 0
	k     int
}

type queryBench struct {
	c        *config
	dir      string
	sessions []*qsession
	ops      []qop
}

func newQuery(c *config) bench { return &queryBench{c: c} }

// setup records the app session (a seeded LU run), synthesizes the
// high-variety session and writes both as daemon-style segment stores.
func (w *queryBench) setup() error {
	var err error
	if w.dir, err = os.MkdirTemp(w.c.work, "store-"); err != nil {
		return err
	}
	app, err := appTrace("lu", queryAppRanks, w.c.scaled(queryAppRecords, 400), w.c.seed)
	if err != nil {
		return err
	}
	varied := variedTrace(queryVariedRanks, w.c.scaled(queryVariedRecord, 200), w.c.seed)
	for _, s := range []struct {
		name string
		tr   *trace.Trace
	}{{"app", app}, {"varied", varied}} {
		manifest, err := writeStore(filepath.Join(w.dir, s.name), s.tr)
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, &qsession{name: s.name, manifest: manifest, tr: s.tr, locs: sites(s.tr)})
	}
	w.ops = genQueryOps(w.c.seed, w.sessions, 4000)
	return nil
}

func (w *queryBench) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// writeStore lands a trace as a sequential segment store with sidecars, in
// merged order — the daemon's layout.
func writeStore(dir string, tr *trace.Trace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	gw, err := trace.NewSequentialSegmentedWriter(dir, "trace", tr.NumRanks(), querySegmentBytes,
		trace.WriterOptions{Writer: "perfbench", BuildIndex: true})
	if err != nil {
		return "", err
	}
	for _, id := range tr.MergedOrder() {
		if err := gw.Write(tr.MustAt(id)); err != nil {
			gw.Close() //nolint:errcheck // the write error is the one reported
			return "", err
		}
	}
	if err := gw.Close(); err != nil {
		return "", err
	}
	return gw.ManifestPath(), nil
}

// sites counts executions per (rank, file, line).
func sites(tr *trace.Trace) []site {
	type key struct {
		rank int
		file string
		line int
	}
	idx := make(map[key]int)
	var out []site
	for r := 0; r < tr.NumRanks(); r++ {
		for i := range tr.Rank(r) {
			rec := &tr.Rank(r)[i]
			if rec.Loc.File == "" {
				continue
			}
			k := key{r, rec.Loc.File, rec.Loc.Line}
			j, ok := idx[k]
			if !ok {
				j = len(out)
				idx[k] = j
				out = append(out, site{rank: r, file: k.file, line: k.line})
			}
			out[j].count++
		}
	}
	return out
}

// Scan predicates: unbounded finds over every rank.
var scanExprs = []string{
	"kind = send && bytes > %d",
	"kind = recv && dur > %d",
	"func = \"Relax\" && tag != %d",
	"func = \"UpperSweep\" && marker > %d",
	"kind = funcentry && start > %d",
	"message && bytes >= %d",
}

// genQueryOps draws the seeded operation sequence: blocks of twelve seeks,
// four scans and (every fifth block) one analyze pass, in seeded order
// with seeded parameters. The fixed proportions keep every run's mix the
// same whatever its length; seeks are cheap, so twelve per block give
// their p90 about 400 samples a run.
func genQueryOps(seed int64, ss []*qsession, n int) []qop {
	rng := rand.New(rand.NewSource(seed))
	var ops []qop
	for block := 0; len(ops) < n; block++ {
		var b []qop
		for i := 0; i < 12; i++ {
			b = append(b, seekOp(rng, ss))
		}
		for i := 0; i < 4; i++ {
			b = append(b, scanOp(rng, ss))
		}
		if block%5 == 4 {
			b = append(b, qop{group: "analyze"})
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		ops = append(ops, b...)
	}
	return ops
}

// Finds go to the app session only, so each find group's median and p90
// sit inside one latency mode; the high-variety session is analyzed.
func seekOp(rng *rand.Rand, ss []*qsession) qop {
	const si = 0
	tr := ss[si].tr
	rank := rng.Intn(tr.NumRanks())
	recs := tr.Rank(rank)
	switch rng.Intn(3) {
	case 0: // marker window on one rank
		m := recs[rng.Intn(len(recs))].Marker
		return qop{group: "seek", sess: si,
			expr: fmt.Sprintf("rank = %d && marker >= %d && marker < %d", rank, m, m+uint64(16+rng.Intn(240)))}
	case 1: // time window on one rank
		t := recs[rng.Intn(len(recs))].Start
		return qop{group: "seek", sess: si,
			expr: fmt.Sprintf("start >= %d && start < %d && rank = %d", t, t+int64(1+rng.Intn(2000)), rank)}
	}
	s := ss[si].locs[rng.Intn(len(ss[si].locs))]
	return qop{group: "seek", sess: si, occ: s, k: rng.Intn(s.count)}
}

func scanOp(rng *rand.Rand, ss []*qsession) qop {
	const si = 0
	tmpl := scanExprs[rng.Intn(len(scanExprs))]
	return qop{group: "scan", sess: si, expr: fmt.Sprintf(tmpl, rng.Intn(200))}
}

// queryStats accumulates one pass.
type queryStats struct {
	lat       map[string][]float64 // group → op latency ms
	matches   map[string]float64
	seekFinds float64 // marker and time finds of the seek group
	opens     float64
	fallbacks float64
	heap      []float64
	busy      time.Duration
	ops       int
}

func (w *queryBench) run(tr *tracer, a *audit) *outcome {
	st := &queryStats{lat: map[string][]float64{}, matches: map[string]float64{}}
	budget := time.Duration(w.c.seconds * float64(time.Second))
	for i := 0; st.busy < budget; i++ {
		op := w.ops[i%len(w.ops)]
		a.try(1)
		w.exec(tr, a, st, op, i)
	}
	o := &outcome{
		e2e: map[string]float64{
			"throughput_per_s": float64(st.ops) / st.busy.Seconds(),
			"primary_p50_ms":   median(st.lat["seek"]),
			"primary_tail_ms":  quantile(st.lat["seek"], 0.90),
			"secondary_p50_ms": median(st.lat["scan"]),
			"heap_mb":          median(st.heap),
		},
		named: []named{
			{"find_seek_p50_ms", median(st.lat["seek"]), "ms"},
			{"find_seek_p90_ms", quantile(st.lat["seek"], 0.90), "ms"},
			{"find_scan_p50_ms", median(st.lat["scan"]), "ms"},
			{"find_scan_p90_ms", quantile(st.lat["scan"], 0.90), "ms"},
			{"analyze_p50_ms", median(st.lat["analyze"]), "ms"},
			{"seek_ops", float64(len(st.lat["seek"])), "count"},
			{"scan_ops", float64(len(st.lat["scan"])), "count"},
			{"analyze_ops", float64(len(st.lat["analyze"])), "count"},
		},
		layers: map[string]float64{},
		unit:   ms(st.busy) / float64(st.ops),
	}
	if tr.enabled() {
		l := o.layers
		l["store.open_ms"] = median(tr.durations("store.OpenMmap"))
		l["store.index_fallback_frac"] = ratio(st.fallbacks, st.opens)
		l["store.index_seeks_per_find"] = ratio(tr.delta("seek", "store_index_seeks_total"), st.seekFinds)
		for _, g := range []string{"seek", "scan"} {
			decoded := tr.delta(g, "store_index_records_total") + tr.delta(g, "store_cursor_records_total")
			l["store.decoded_per_match."+g] = ratio(decoded, st.matches[g])
			l["query.plan_ms."+g] = median(tr.durations("query.Plan.Run." + g))
		}
		l["query.evaluated_per_match"] = ratio(tr.delta("scan", "query_records_evaluated_total"), st.matches["scan"])
		pruned := tr.delta("seek", "query_ranks_pruned_total")
		l["query.ranks_pruned_frac"] = ratio(pruned, pruned+tr.delta("seek", "query_ranks_scanned_total"))
		l["analysis.occurrence_ms"] = median(tr.durations("analysis.OccurrenceAtStore"))
		l["analysis.deadlock_ms"] = median(tr.durations("analysis.DetectDeadlock"))
		l["analysis.traffic_ms"] = median(tr.durations("analysis.AnalyzeTrafficStream"))
		l["graph.build_ms.app"] = median(tr.durations("graph.FromStream.app"))
		l["graph.build_ms.varied"] = median(tr.durations("graph.FromStream.varied"))
	}
	return o
}

// exec runs, times and checks one operation.
func (w *queryBench) exec(tr *tracer, a *audit, st *queryStats, op qop, i int) {
	before := tr.counters()
	id := tr.op()
	root := tr.begin("bench."+op.group, id, -1)
	t0 := time.Now()
	var check func()
	switch {
	case op.group == "analyze":
		check = w.analyze(tr, id, root, a, st)
	case op.occ.count > 0:
		check = w.occurrence(tr, id, root, a, st, op)
	default:
		check = w.find(tr, id, root, a, st, op, i)
	}
	d := time.Since(t0)
	tr.end(root)
	tr.addDelta(op.group, before, tr.counters())
	st.busy += d
	st.ops++
	st.lat[op.group] = append(st.lat[op.group], ms(d))
	if check != nil {
		check()
	}
	// The oracle corpora and the brute-force checks are the benchmark's,
	// not the program's: a tdbg -in process holds neither. Collecting
	// their garbage here, untimed, keeps it out of the next op's time.
	runtime.GC()
}

// open opens a session store cold, counting opens without valid sidecars.
func (w *queryBench) open(tr *tracer, id int64, parent int, st *queryStats, sess int) (*store.Store, error) {
	var s *store.Store
	var err error
	tr.call("store.OpenMmap", id, parent, func() { s, err = store.OpenMmap(w.sessions[sess].manifest) })
	if err != nil {
		return nil, err
	}
	st.opens++
	if !s.Indexes().Available() {
		st.fallbacks++
	}
	return s, nil
}

// find runs a bounded or unbounded find; the returned check compares the
// answer with a brute-force Match over the corpus (and, every
// scanCheckEvery-th find, with the unindexed executor).
func (w *queryBench) find(tr *tracer, id int64, parent int, a *audit, st *queryStats, op qop, i int) func() {
	q, err := query.Compile(op.expr)
	if err != nil {
		a.fail("compile", 1)
		return nil
	}
	s, err := w.open(tr, id, parent, st, op.sess)
	if err != nil {
		a.fail("open", 1)
		return nil
	}
	var got []trace.EventID
	tr.call("query.Plan.Run."+op.group, id, parent, func() { got, err = q.Plan(query.NewStoreSource(s)).Run() })
	if err != nil {
		s.Close()
		a.fail("find: "+firstLine(err), 1)
		return nil
	}
	st.matches[op.group] += float64(len(got))
	if op.group == "seek" {
		st.seekFinds++
	}
	return func() {
		defer s.Close()
		if want := bruteForce(q, w.sessions[op.sess].tr); !sameIDs(got, want) {
			a.fail("find-"+op.group+"-wrong-answer", 1)
			return
		}
		if i%scanCheckEvery == 0 {
			scan, err := q.Plan(query.NewAllSource(s.NumRanks(), s.All)).Run()
			if err != nil || !sameIDs(got, scan) {
				a.fail("find-index-vs-scan", 1)
			}
		}
	}
}

func (w *queryBench) occurrence(tr *tracer, id int64, parent int, a *audit, st *queryStats, op qop) func() {
	s, err := w.open(tr, id, parent, st, op.sess)
	if err != nil {
		a.fail("open", 1)
		return nil
	}
	var got trace.EventID
	tr.call("analysis.OccurrenceAtStore", id, parent, func() {
		got, err = analysis.OccurrenceAtStore(s, op.occ.file, op.occ.line, op.occ.rank, op.k)
	})
	s.Close()
	st.matches["seek"]++
	return func() {
		want, werr := analysis.OccurrenceAt(w.sessions[op.sess].tr, op.occ.file, op.occ.line, op.occ.rank, op.k)
		if err != nil || werr != nil || got != want {
			a.fail("occurrence-wrong-answer", 1)
		}
	}
}

// analyze runs the deadlock, traffic and trace-graph analyses over every
// session, each from a fresh open.
func (w *queryBench) analyze(tr *tracer, id int64, parent int, a *audit, st *queryStats) func() {
	got := make([]analyzeAnswer, len(w.sessions))
	failed := false
	for si, sess := range w.sessions {
		s, err := w.open(tr, id, parent, st, si)
		if err != nil {
			failed = true
			continue
		}
		var t *trace.Trace
		tr.call("store.Trace", id, parent, func() { t, err = s.Trace() })
		if err == nil {
			tr.call("analysis.DetectDeadlock", id, parent, func() { got[si].deadlock = analysis.DetectDeadlock(t).String() })
		}
		var traffic *analysis.TrafficReport
		c, cerr := s.All()
		if cerr == nil {
			tr.call("analysis.AnalyzeTrafficStream", id, parent, func() { traffic, cerr = analysis.AnalyzeTrafficStream(s.NumRanks(), c) })
			c.Close()
		}
		if cerr == nil {
			got[si].traffic = traffic.String()
		}
		var g *graph.TraceGraph
		var gerr error
		tr.call("graph.FromStream."+sess.name, id, parent, func() { g, gerr = graph.FromStream(s.NumRanks(), core.ArcMergeLimit, s.Records) })
		if gerr == nil {
			got[si].nodes, got[si].arcs = len(g.Nodes()), g.ArcCount()
		}
		s.Close()
		if err != nil || cerr != nil || gerr != nil {
			failed = true
		}
	}
	return func() {
		st.heap = append(st.heap, liveHeapMiB())
		if failed {
			a.fail("analyze-error", 1)
			return
		}
		for si, sess := range w.sessions {
			if sess.want == nil {
				g := graph.FromTrace(sess.tr, core.ArcMergeLimit)
				sess.want = &analyzeAnswer{
					deadlock: analysis.DetectDeadlock(sess.tr).String(),
					traffic:  analysis.AnalyzeTraffic(sess.tr).String(),
					nodes:    len(g.Nodes()), arcs: g.ArcCount(),
				}
			}
			if !reflect.DeepEqual(got[si], *sess.want) {
				a.fail("analyze-wrong-answer", 1)
				return
			}
		}
	}
}

// bruteForce filters every corpus record through Match.
func bruteForce(q *query.Query, tr *trace.Trace) []trace.EventID {
	var out []trace.EventID
	for r := 0; r < tr.NumRanks(); r++ {
		recs := tr.Rank(r)
		for i := range recs {
			if q.Match(&recs[i]) {
				out = append(out, trace.EventID{Rank: r, Index: i})
			}
		}
	}
	return out
}

func sameIDs(a, b []trace.EventID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
