package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tracedbg/internal/remote"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// Bounds on every wait in the producer workloads. A wait that expires
// counts its records as failed under a name and the run goes on.
const (
	closeDeadline    = 70 * time.Second // Client.Close drains up to 2×30s by default
	finalizeDeadline = 20 * time.Second
)

// batchStat is one flush batch of a producer: when its Emit calls began,
// how long Emit+Flush took, and the cumulative record count after it.
type batchStat struct {
	at  time.Time
	dur time.Duration
	end uint64
	due time.Time // scheduled emit time (open-loop producers)
}

// producer is one client session streaming a corpus into the daemon.
type producer struct {
	id      string
	records []trace.Record
	cl      *remote.Client
	batches []batchStat

	closeStart, closeEnd time.Time
	closeErr             error
	closed               bool // Close returned within its deadline
	doneAt               time.Time
	finalized            bool
}

// dialProducer opens a session with the options DialOptions ships; only
// the session identity and the spill location are set.
func dialProducer(d *remote.Daemon, id string, ranks int, records []trace.Record, spillDir string) (*producer, error) {
	cl, err := remote.DialOptions(d.Addr(), ranks, remote.ClientOptions{
		ID: "perfbench-" + id, SessionID: id, SpillDir: spillDir,
	})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", id, err)
	}
	return &producer{id: id, records: records, cl: cl}, nil
}

// emitBatch emits records [from, to) and flushes, recording the batch.
func (p *producer) emitBatch(tr *tracer, op int64, parent int, from, to int, due time.Time) {
	t0 := time.Now()
	id := tr.begin("remote.Client.Emit", op, parent)
	for i := from; i < to; i++ {
		p.cl.Emit(&p.records[i])
	}
	tr.end(id)
	tr.call("remote.Client.Flush", op, parent, func() { p.cl.Flush() }) //nolint:errcheck // Flush reports only fatal client errors, surfaced by Close
	p.batches = append(p.batches, batchStat{at: t0, dur: time.Since(t0), end: uint64(to), due: due})
}

// producerLayers fills the per-layer metrics ingest and live share: n
// records emitted, counter differences kept under group, and the bytes of
// the sessions' segments and sidecars.
func producerLayers(l map[string]float64, tr *tracer, group string, n float64, segs, sidecars int64) {
	l["client.emit_ns_per_record"] = tr.total("remote.Client.Emit") * 1e6 / n
	l["client.flush_us"] = median(tr.durations("remote.Client.Flush")) * 1e3
	l["client.spill_frac"] = tr.delta(group, "remote_client_spill_records_total") / n
	l["client.spill_bytes_per_record"] = tr.delta(group, "remote_client_spill_bytes_total") / n
	l["client.window_stalls_per_krec"] = tr.delta(group, "remote_client_window_stalls_total") * 1e3 / n
	l["daemon.ingest_stalls"] = tr.delta(group, "collector_ingest_stalls_total")
	l["trace.bytes_per_record"] = float64(segs) / n
	l["trace.sidecar_bytes_per_record"] = float64(sidecars) / n
	l["trace.chunks_per_krec"] = tr.delta(group, "trace_chunks_sealed_total") * 1e3 / n
	l["trace.fsyncs_per_krec"] = tr.delta(group, "trace_fsyncs_total") * 1e3 / n
}

// close runs Client.Close under closeDeadline.
func (p *producer) close(tr *tracer, op int64, parent int, a *audit) {
	id := tr.begin("remote.Client.Close", op, parent)
	p.closeStart = time.Now()
	done := make(chan error, 1)
	go func() { done <- p.cl.Close() }()
	select {
	case p.closeErr = <-done:
		p.closed = true
	case <-time.After(closeDeadline):
		p.closeErr = fmt.Errorf("close: no return within %v", closeDeadline)
	}
	p.closeEnd = time.Now()
	tr.end(id)
	if p.closeErr != nil {
		a.fail("close: "+firstLine(p.closeErr), int64(len(p.records)))
	}
}

// awaitFinalized waits until the daemon reports the session done with no
// segment owing a sidecar.
func (p *producer) awaitFinalized(d *remote.Daemon, tr *tracer, op int64, parent int, a *audit) {
	if !p.closed {
		return
	}
	id := tr.begin("remote.Daemon.finalize", op, parent)
	defer tr.end(id)
	deadline := time.Now().Add(finalizeDeadline)
	for time.Now().Before(deadline) {
		if st, ok := sessionStatus(d, p.id); ok && st.State == "done" && st.SegsPending == 0 {
			p.doneAt = time.Now()
			p.finalized = true
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	a.fail("finalize-timeout", int64(len(p.records)))
}

func sessionStatus(d *remote.Daemon, id string) (remote.SessionStatus, bool) {
	for _, st := range d.Sessions() {
		if st.ID == id {
			return st, true
		}
	}
	return remote.SessionStatus{}, false
}

// sampler polls client and daemon queue depths while producers run. Its
// series are read only after halt.
type sampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	times []time.Time
	// per producer index: durable count, daemon queue (accepted−durable),
	// client backlog (total−acked)
	durable, queue, unacked [][]uint64
}

func startSampler(d *remote.Daemon, ps []*producer, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}),
		durable: make([][]uint64, len(ps)), queue: make([][]uint64, len(ps)), unacked: make([][]uint64, len(ps))}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.sample(d, ps)
			select {
			case <-s.stop:
				s.sample(d, ps) // a pass shorter than one tick still sees its end
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample(d *remote.Daemon, ps []*producer) {
	byID := make(map[string]remote.SessionStatus)
	for _, st := range d.Sessions() {
		byID[st.ID] = st
	}
	s.times = append(s.times, time.Now()) // after the read: the counts held by then
	for i, p := range ps {
		st := byID[p.id]
		s.durable[i] = append(s.durable[i], st.Durable)
		s.queue[i] = append(s.queue[i], st.Accepted-st.Durable)
		s.unacked[i] = append(s.unacked[i], p.cl.Total()-p.cl.Acked())
	}
}

func (s *sampler) halt() {
	close(s.stop)
	s.wg.Wait()
}

// activeSamples returns producer i's samples of a series taken between
// its first batch and the return of its Close.
func (s *sampler) activeSamples(series [][]uint64, i int, p *producer) []float64 {
	var out []float64
	if len(p.batches) == 0 {
		return nil
	}
	from, to := p.batches[0].at, p.closeEnd
	for k, t := range s.times {
		if !t.Before(from) && !t.After(to) {
			out = append(out, float64(series[i][k]))
		}
	}
	return out
}

// durableLatencies returns, per batch of producer i, the time from the
// batch's first Emit to the first sample showing it durable, in ms.
func (s *sampler) durableLatencies(i int, p *producer) []float64 {
	var out []float64
	k := 0
	for _, b := range p.batches {
		for k < len(s.times) && s.durable[i][k] < b.end {
			k++
		}
		if k == len(s.times) {
			break
		}
		out = append(out, ms(s.times[k].Sub(b.at)))
	}
	return out
}

// auditSession reopens a finalized session with store.Open and matches it
// record for record against what was emitted; the session's sidecars must
// validate. Returns the failed record count.
func auditSession(manifest string, want *trace.Trace) (int64, string) {
	total := int64(want.Len())
	st, err := store.Open(manifest)
	if err != nil {
		return total, "reopen"
	}
	defer st.Close()
	if !st.Indexes().Available() {
		return total, "sidecar-invalid"
	}
	got, err := st.Trace()
	if err != nil {
		return total, "reload"
	}
	var bad int64
	for r := 0; r < want.NumRanks(); r++ {
		w := want.Rank(r)
		var g []trace.Record
		if r < got.NumRanks() {
			g = got.Rank(r)
		}
		for i := range w {
			if i >= len(g) || g[i] != w[i] {
				bad++
			}
		}
		if extra := int64(len(g) - len(w)); extra > 0 {
			bad += extra
		}
	}
	if bad > total {
		bad = total
	}
	return bad, "record-mismatch"
}

// dirBytes sums a session directory's file sizes: all files, segment
// files (.trace) and sidecars (.tdx).
func dirBytes(dir string) (all, segs, sidecars int64) {
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries just don't count
		if err != nil || e.IsDir() {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return nil
		}
		all += info.Size()
		switch {
		case strings.HasSuffix(path, ".trace"):
			segs += info.Size()
		case strings.HasSuffix(path, ".tdx"):
			sidecars += info.Size()
		}
		return nil
	})
	return all, segs, sidecars
}

func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}

// newSpillDir makes the per-pass client spill directory.
func newSpillDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	return dir, os.MkdirAll(dir, 0o755)
}
