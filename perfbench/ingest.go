package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tracedbg/internal/remote"
	"tracedbg/internal/trace"
)

// The ingest workload: a closed loop of two sessions (one per core), each
// replaying an app-recorded corpus of about 20k records through Emit,
// flushing every ingestFlushEvery records, then calling Close. A round
// ends when every session is finalized with no segment owing a sidecar.
const (
	ingestRanks      = 4
	ingestRecords    = 20000
	ingestFlushEvery = 64
	sampleEvery      = 20 * time.Millisecond
)

type ingest struct {
	c       *config
	apps    []*trace.Trace   // per session: the recorded run
	corpora [][]trace.Record // per session: its records in emit order
	d       *remote.Daemon
	dir     string
	rounds  int
}

func newIngest(c *config) bench { return &ingest{c: c} }

// setup records the corpora (a seeded LU run and a seeded Jacobi run) and
// starts the daemon with the options tcollect -daemon ships.
func (w *ingest) setup() error {
	n := w.c.scaled(ingestRecords, 200)
	for i, app := range []string{"lu", "jacobi"} {
		tr, err := appTrace(app, ingestRanks, n, w.c.seed+int64(i))
		if err != nil {
			return err
		}
		w.apps = append(w.apps, tr)
		w.corpora = append(w.corpora, merged(tr))
	}
	var err error
	if w.dir, err = os.MkdirTemp(w.c.work, "daemon-"); err != nil {
		return err
	}
	w.d, err = startDaemon(w.dir)
	return err
}

// startDaemon starts an in-process daemon with shipped defaults.
func startDaemon(dir string) (*remote.Daemon, error) {
	return remote.NewDaemon("127.0.0.1:0", remote.DaemonOptions{Dir: dir})
}

func stopDaemon(d *remote.Daemon) {
	if d == nil {
		return
	}
	if err := d.Drain(10 * time.Second); err != nil {
		d.Kill()
	}
}

func (w *ingest) teardown() {
	stopDaemon(w.d)
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// ingestRound is what one round measured.
type ingestRound struct {
	ps      []*producer
	s       *sampler
	start   time.Time
	end     time.Time
	heap    float64
	records uint64
}

func (w *ingest) round(tr *tracer, a *audit) (*ingestRound, error) {
	w.rounds++
	spill, err := newSpillDir(w.c.work, fmt.Sprintf("spill-%d", w.rounds))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	r := &ingestRound{}
	for i, recs := range w.corpora {
		p, err := dialProducer(w.d, fmt.Sprintf("ingest-%d-%d", w.rounds, i), ingestRanks, recs, spill)
		if err != nil {
			for _, p := range r.ps {
				p.close(nil, 0, -1, newAudit())
			}
			return nil, err
		}
		r.ps = append(r.ps, p)
		r.records += uint64(len(recs))
		a.try(int64(len(recs)))
	}
	before := tr.counters()
	r.s = startSampler(w.d, r.ps, sampleEvery)
	r.start = time.Now()

	// Each session emits, then waits for the heap reading at the moment
	// emission ends, then closes and waits for finalize.
	var emitted, closed sync.WaitGroup
	release := make(chan struct{})
	for _, p := range r.ps {
		emitted.Add(1)
		closed.Add(1)
		go func(p *producer) {
			defer closed.Done()
			op := tr.op()
			root := tr.begin("bench.session", op, -1)
			for from := 0; from < len(p.records); from += ingestFlushEvery {
				to := from + ingestFlushEvery
				if to > len(p.records) {
					to = len(p.records)
				}
				p.emitBatch(tr, op, root, from, to, time.Time{})
			}
			tr.end(root)
			emitted.Done()
			<-release
			root = tr.begin("bench.session", op, -1)
			p.close(tr, op, root, a)
			p.awaitFinalized(w.d, tr, op, root, a)
			tr.end(root)
		}(p)
	}
	emitted.Wait()
	r.heap = liveHeapMiB()
	close(release)
	closed.Wait()
	r.end = time.Now()
	r.s.halt()
	tr.addDelta("ingest", before, tr.counters())

	for i, p := range r.ps {
		if !p.finalized {
			continue
		}
		bad, why := auditSession(w.d.SessionManifest(p.id), w.apps[i])
		a.fail(why, bad)
	}
	return r, nil
}

func (w *ingest) run(tr *tracer, a *audit) *outcome {
	var rounds []*ingestRound
	start := time.Now()
	var last time.Duration
	for len(rounds) == 0 || time.Since(start)+last <= time.Duration(w.c.seconds*1.1*float64(time.Second)) {
		t0 := time.Now()
		r, err := w.round(tr, a)
		if err != nil {
			a.try(1)
			a.fail("round: "+firstLine(err), 1)
			break
		}
		rounds = append(rounds, r)
		last = time.Since(t0)
	}
	return w.summarize(rounds, tr)
}

func (w *ingest) summarize(rounds []*ingestRound, tr *tracer) *outcome {
	var batchMs, perRecNs, durLat, heaps, closeMs, finMs, unacked, queue []float64
	var records uint64
	var wall time.Duration
	var disk, segs, sidecars int64
	for _, r := range rounds {
		records += r.records
		wall += r.end.Sub(r.start)
		heaps = append(heaps, r.heap)
		for i, p := range r.ps {
			for _, b := range p.batches {
				batchMs = append(batchMs, ms(b.dur))
				perRecNs = append(perRecNs, float64(b.dur)/float64(ingestFlushEvery))
			}
			durLat = append(durLat, r.s.durableLatencies(i, p)...)
			closeMs = append(closeMs, ms(p.closeEnd.Sub(p.closeStart)))
			if p.finalized {
				finMs = append(finMs, ms(p.doneAt.Sub(p.closeEnd)))
			}
			unacked = append(unacked, r.s.activeSamples(r.s.unacked, i, p)...)
			queue = append(queue, r.s.activeSamples(r.s.queue, i, p)...)
			all, sg, sc := dirBytes(filepath.Join(w.dir, p.id))
			disk += all
			segs += sg
			sidecars += sc
		}
	}
	n := float64(records)
	o := &outcome{
		e2e: map[string]float64{
			"throughput_per_s": n / wall.Seconds(),
			"primary_p50_ms":   median(durLat),
			"primary_tail_ms":  quantile(durLat, 0.90),
			"secondary_p50_ms": median(batchMs),
			"heap_mb":          median(heaps),
		},
		named: []named{
			{"ingest_records_per_s", n / wall.Seconds(), "records/s"},
			{"emit_ns_per_record", median(perRecNs), "ns"},
			{"disk_bytes_per_record", float64(disk) / n, "B"},
			{"retained_heap_mb", median(heaps), "MiB"},
			{"emit_to_durable_p50_ms", median(durLat), "ms"},
			{"emit_to_durable_p90_ms", quantile(durLat, 0.90), "ms"},
			{"emit_batch_p50_ms", median(batchMs), "ms"},
			{"batches", float64(len(batchMs)), "count"},
		},
		layers: map[string]float64{},
		unit:   ms(wall) / n,
	}
	if tr.enabled() {
		l := o.layers
		producerLayers(l, tr, "ingest", n, segs, sidecars)
		l["client.close_drain_ms"] = median(closeMs)
		l["client.unacked_p50"] = median(unacked)
		l["daemon.queue_p50"] = median(queue)
		l["daemon.finalize_ms"] = median(finMs)
	}
	return o
}
