package remote

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tracedbg/internal/trace"
)

// modelCollector is a scripted v3 collector for model-based tests of the
// client's retransmission buffer. The test decides every credit grant,
// disconnect and restart; the collector checks that it receives record
// got+1 next, every time, so a gap or a duplicate fails at once.
type modelCollector struct {
	ln net.Listener
	cl *Client // read at each handshake to classify the resume point

	mu        sync.Mutex
	got       uint64 // records 1 .. got received, each exactly once
	conn      net.Conn
	handshake int            // handshakes served
	win       uint64         // credit granted at each handshake
	resumes   map[string]int // resume points served, by where they fell
	err       error          // first violation
	wg        sync.WaitGroup
}

func newModelCollector(t *testing.T) *modelCollector {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mc := &modelCollector{ln: ln, resumes: map[string]int{}}
	mc.wg.Add(1)
	go mc.serve()
	return mc
}

func (mc *modelCollector) serve() {
	defer mc.wg.Done()
	for {
		conn, err := mc.ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil {
			conn.Close()
			continue
		}
		mc.mu.Lock()
		ack := mc.got
		if mc.cl != nil {
			mc.resumes[mc.classify(ack)]++
		}
		mc.conn = conn
		mc.handshake++
		werr := writeAck(conn, ack, mc.win)
		mc.mu.Unlock()
		if werr != nil {
			conn.Close()
			continue
		}
		mc.wg.Add(1)
		go mc.read(conn, br)
	}
}

// classify names where resume point ack falls in the client's buffer. The
// client is between dial and attach, so its buffer is not moving.
func (mc *modelCollector) classify(ack uint64) string {
	cl := mc.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	switch {
	case ack == 0:
		return "zero"
	case ack >= cl.memBase:
		return "memory"
	}
	for _, s := range cl.spill.seeks {
		if s.records == ack {
			return "spill-chunk-start"
		}
	}
	return "spill-mid-chunk"
}

func (mc *modelCollector) read(conn net.Conn, br *bufio.Reader) {
	defer mc.wg.Done()
	defer conn.Close()
	sc, err := trace.NewScanner(br)
	if err != nil {
		return
	}
	for {
		rec, err := sc.Next()
		if err != nil {
			return
		}
		mc.mu.Lock()
		if mc.conn != conn {
			mc.mu.Unlock()
			return // the collector hung up on this connection
		}
		if rec.Marker != mc.got+1 && mc.err == nil {
			mc.err = fmt.Errorf("received record %d after %d", rec.Marker, mc.got)
		}
		mc.got = rec.Marker
		mc.mu.Unlock()
	}
}

// grant acknowledges everything received and opens k more records of
// credit.
func (mc *modelCollector) grant(k uint64) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.conn != nil {
		writeAck(mc.conn, mc.got, k) //nolint:errcheck // a dead connection shows up as a reconnect
	}
}

// restart drops the connection and resumes the session at keep records:
// keep == got is a network outage, keep < got a restart that recovered
// only keep records, 0 a collector that lost everything.
func (mc *modelCollector) restart(t *testing.T, keep uint64) {
	mc.mu.Lock()
	n := mc.handshake
	if keep < mc.got {
		mc.got = keep
	}
	conn := mc.conn
	mc.conn = nil
	mc.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	waitFor(t, "client reconnect", func() bool {
		mc.mu.Lock()
		served := mc.handshake > n
		mc.mu.Unlock()
		mc.cl.mu.Lock()
		defer mc.cl.mu.Unlock()
		return served && mc.cl.conn != nil && !mc.cl.reconnecting
	})
}

func (mc *modelCollector) close() {
	mc.ln.Close()
	mc.mu.Lock()
	if mc.conn != nil {
		mc.conn.Close()
	}
	mc.mu.Unlock()
	mc.wg.Wait()
}

// modelRecord is record j of a model run. Its string fields change every
// few hundred records, so spill chunks keep defining new string ids and a
// mid-file reader must resolve ids defined chunks earlier.
func modelRecord(j uint64) *trace.Record {
	return &trace.Record{
		Kind: trace.KindMarker, Marker: j, Start: int64(j), End: int64(j) + 1,
		Loc:  trace.Location{File: fmt.Sprintf("f%d.go", j%7), Line: int(j % 97), Func: fmt.Sprintf("fn%d", j/300)},
		Name: fmt.Sprintf("n%d", j/130),
	}
}

// TestClientBufferModel drives a client with an 8-record ring through
// seeded random schedules of emits, flushes, credit grants, outages,
// restarts that recover fewer records than were acknowledged, and
// restarts from 0. Whatever the schedule, the collector must end up with
// every emitted record exactly once, in order, and across the schedules
// resume points must have fallen in the ring, at a spill chunk start, in
// the middle of a spill chunk, and at 0.
func TestClientBufferModel(t *testing.T) {
	resumes := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		for k, v := range runClientModel(t, seed) {
			resumes[k] += v
		}
	}
	for _, where := range []string{"zero", "memory", "spill-chunk-start", "spill-mid-chunk"} {
		if resumes[where] == 0 {
			t.Errorf("no resume point fell at %s (served: %v)", where, resumes)
		}
	}
}

func runClientModel(t *testing.T, seed int64) map[string]int {
	rng := rand.New(rand.NewSource(seed))
	mc := newModelCollector(t)
	defer mc.close()
	mc.win = uint64(1 + rng.Intn(32))

	o := fastClient()
	o.SessionID = "model"
	o.MemLimit = 8
	o.SpillDir = t.TempDir()
	o.DrainTimeout = 10 * time.Second
	cl, err := DialOptions(mc.ln.Addr().String(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	mc.mu.Lock()
	mc.cl = cl
	mc.mu.Unlock()

	var emitted uint64
	for op := 0; op < 250; op++ {
		switch p := rng.Intn(100); {
		case p < 40:
			for n := 1 + rng.Intn(40); n > 0; n-- {
				emitted++
				cl.Emit(modelRecord(emitted))
			}
		case p < 55:
			if err := cl.Flush(); err != nil {
				t.Fatalf("seed %d: flush: %v", seed, err)
			}
		case p < 77:
			mc.grant(uint64(1 + rng.Intn(64)))
		case p < 87:
			mc.restart(t, emitted) // outage: the collector keeps what it has
		case p < 96:
			mc.mu.Lock()
			keep := uint64(rng.Int63n(int64(mc.got) + 1))
			mc.mu.Unlock()
			mc.restart(t, keep)
		default:
			mc.restart(t, 0)
		}
	}
	mc.grant(1 << 40)
	if err := cl.Close(); err != nil {
		t.Fatalf("seed %d: close: %v", seed, err)
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		t.Fatalf("seed %d: %v", seed, mc.err)
	}
	if mc.got != emitted {
		t.Fatalf("seed %d: collector holds %d records, want %d", seed, mc.got, emitted)
	}
	return mc.resumes
}
