package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/remote"
	"tracedbg/internal/trace"
)

// The live workload: an open loop of one session emitting liveBatch
// records every livePeriod (1,000 records/s, about half the credit-bound
// rate of shipped defaults) while one NDJSON consumer reads the daemon's
// /sessions/<id>/tail stream.
const (
	liveRanks    = 4
	liveBatch    = 10
	livePeriod   = 10 * time.Millisecond
	liveDeadline = time.Second // a record arriving later than this after its due time failed
	tailDeadline = 15 * time.Second
)

type live struct {
	c       *config
	records []trace.Record
	d       *remote.Daemon
	srv     *obs.Server
	dir     string
	passes  int
}

func newLive(c *config) bench { return &live{c: c} }

// setup records a seeded LU run long enough for one pass and starts the
// daemon (shipped defaults) with its session API mounted.
func (w *live) setup() error {
	need := int(w.c.seconds*float64(time.Second)/float64(livePeriod))*liveBatch + 10*liveBatch
	tr, err := appTrace("lu", liveRanks, need+need/10, w.c.seed)
	if err != nil {
		return err
	}
	w.records = merged(tr)
	if w.dir, err = os.MkdirTemp(w.c.work, "daemon-"); err != nil {
		return err
	}
	if w.d, err = startDaemon(w.dir); err != nil {
		return err
	}
	w.srv, err = obs.ServeWith("127.0.0.1:0", obs.Default(), w.d.Mounts())
	return err
}

func (w *live) teardown() {
	if w.srv != nil {
		w.srv.Close()
	}
	stopDaemon(w.d)
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// tailLine is one NDJSON line of the tail stream: a record or the EOF
// summary.
type tailLine struct {
	EOF     bool   `json:"eof"`
	Records int64  `json:"records"`
	Dropped int64  `json:"dropped"`
	Rank    int    `json:"rank"`
	Marker  uint64 `json:"marker"`
}

// arrival is one record seen on the tail.
type arrival struct {
	rank   int
	marker uint64
	at     time.Time
}

// consumer reads one session's tail until EOF or ctx ends.
type consumer struct {
	arrivals []arrival
	eof      *tailLine
	err      error
}

func (cs *consumer) read(ctx context.Context, url string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cs.err = err
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cs.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cs.err = fmt.Errorf("tail: %s", resp.Status)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		var l tailLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			cs.err = err
			return
		}
		if l.EOF {
			cs.eof = &l
			return
		}
		cs.arrivals = append(cs.arrivals, arrival{l.Rank, l.Marker, now})
	}
	cs.err = sc.Err()
}

func (w *live) run(tr *tracer, a *audit) *outcome {
	w.passes++
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	spill, err := newSpillDir(w.c.work, fmt.Sprintf("spill-live-%d", w.passes))
	if err != nil {
		a.try(1)
		a.fail("spill-dir", 1)
		return o
	}
	defer os.RemoveAll(spill)
	batches := int(w.c.seconds * float64(time.Second) / float64(livePeriod))
	n := batches * liveBatch
	recs := w.records[:n]
	a.try(int64(n))
	p, err := dialProducer(w.d, fmt.Sprintf("live-%d", w.passes), liveRanks, recs, spill)
	if err != nil {
		a.fail("dial", int64(n))
		return o
	}

	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(w.c.seconds*float64(time.Second))+closeDeadline+tailDeadline)
	defer cancel()
	cs := &consumer{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cs.read(ctx, w.srv.URL()+"/sessions/"+p.id+"/tail")
	}()

	before := tr.counters()
	s := startSampler(w.d, []*producer{p}, sampleEvery)
	start := time.Now().Add(livePeriod)
	op := tr.op()
	for k := 0; k < batches; k++ {
		due := start.Add(time.Duration(k) * livePeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		root := tr.begin("bench.batch", op, -1)
		p.emitBatch(tr, op, root, k*liveBatch, (k+1)*liveBatch, due)
		tr.end(root)
	}
	o.e2e["heap_mb"] = liveHeapMiB()
	root := tr.begin("bench.close", op, -1)
	p.close(tr, op, root, a)
	p.awaitFinalized(w.d, tr, op, root, a)
	tr.end(root)
	s.halt()

	// The tail ends at finalize; bound the wait for its EOF.
	tailDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(tailDone)
	}()
	select {
	case <-tailDone:
	case <-time.After(tailDeadline):
		cancel()
		<-tailDone
	}
	tr.addDelta("live", before, tr.counters())

	lags, delivered := w.check(p, cs, a)
	var batchMs, late []float64
	for _, b := range p.batches {
		batchMs = append(batchMs, ms(b.dur))
		late = append(late, ms(b.at.Sub(b.due)))
	}
	var dropped int64
	if cs.eof != nil {
		dropped = cs.eof.Dropped
	}
	var span time.Duration
	if len(cs.arrivals) > 0 {
		span = cs.arrivals[len(cs.arrivals)-1].at.Sub(start)
	}
	o.e2e["throughput_per_s"] = ratio(float64(delivered), span.Seconds())
	o.e2e["primary_p50_ms"] = median(lags)
	o.e2e["primary_tail_ms"] = quantile(lags, 0.99)
	o.e2e["secondary_p50_ms"] = median(batchMs)
	o.named = []named{
		{"tail_lag_p50_ms", median(lags), "ms"},
		{"tail_lag_p99_ms", quantile(lags, 0.99), "ms"},
		{"emit_ns_per_record", median(batchMs) * 1e6 / liveBatch, "ns"},
		{"retained_heap_mb", o.e2e["heap_mb"], "MiB"},
		{"delivered_per_s", o.e2e["throughput_per_s"], "records/s"},
		{"records_delivered", float64(delivered), "count"},
		{"gen_late_p99_ms", quantile(late, 0.99), "ms"},
	}
	o.unit = mean(batchMs)
	if tr.enabled() {
		l := o.layers
		nf := float64(n)
		_, segs, sidecars := dirBytes(filepath.Join(w.dir, p.id))
		producerLayers(l, tr, "live", nf, segs, sidecars)
		l["client.close_drain_ms"] = ms(p.closeEnd.Sub(p.closeStart))
		l["client.unacked_p50"] = median(s.activeSamples(s.unacked, 0, p))
		l["daemon.queue_p50"] = median(s.activeSamples(s.queue, 0, p))
		if p.finalized {
			l["daemon.finalize_ms"] = ms(p.doneAt.Sub(p.closeEnd))
		}
		l["stream.dropped_frac"] = ratio(float64(dropped), float64(delivered+dropped))
		l["store.tail_polls_per_krec"] = ratio(tr.delta("live", "store_tail_polls_total")*1e3, float64(delivered))
		l["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	}
	return o
}

// check audits the tail against what was emitted: every record delivered
// once, in per-rank order, within liveDeadline of its due time, and the
// EOF summary accounting for every record. It returns the lags of records
// delivered and the delivered count.
func (w *live) check(p *producer, cs *consumer, a *audit) ([]float64, int64) {
	type key struct {
		rank   int
		marker uint64
	}
	due := make(map[key]time.Time, len(p.records))
	k := 0
	for _, b := range p.batches {
		for ; uint64(k) < b.end; k++ {
			due[key{p.records[k].Rank, p.records[k].Marker}] = b.due
		}
	}
	seen := make(map[key]bool, len(due))
	last := make(map[int]uint64)
	var lags []float64
	var late, dup, unknown, order int64
	for _, ar := range cs.arrivals {
		kk := key{ar.rank, ar.marker}
		d, ok := due[kk]
		switch {
		case !ok:
			unknown++
			continue
		case seen[kk]:
			dup++
			continue
		}
		seen[kk] = true
		if ar.marker <= last[ar.rank] {
			order++
		}
		last[ar.rank] = ar.marker
		lag := ar.at.Sub(d)
		if lag > liveDeadline {
			late++
		}
		lags = append(lags, ms(lag))
	}
	a.fail("tail-late", late)
	a.fail("tail-duplicate", dup)
	a.fail("tail-unknown-record", unknown)
	a.fail("tail-order", order)
	delivered := int64(len(seen))
	switch {
	case cs.eof == nil:
		why := "tail-no-eof"
		if cs.err != nil {
			why += ": " + firstLine(cs.err)
		}
		a.fail(why, int64(len(p.records))-delivered)
	default:
		if cs.eof.Records+cs.eof.Dropped != int64(len(p.records)) {
			a.fail("tail-eof-count", abs64(int64(len(p.records))-cs.eof.Records-cs.eof.Dropped))
		}
		a.fail("tail-dropped", cs.eof.Dropped)
		if missing := int64(len(p.records)) - delivered - cs.eof.Dropped; missing > 0 {
			a.fail("tail-missing", missing)
		}
	}
	return lags, delivered
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
