package remote

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tracedbg/internal/trace"
)

// fastClient returns options tuned for test-speed reconnection.
func fastClient() ClientOptions {
	return ClientOptions{
		MaxRetries:  -1, // the test controls how long the outage lasts
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// restartCollector binds a new collector on the exact address of a killed
// one, retrying briefly in case the OS has not released the port yet.
func restartCollector(t *testing.T, addr string, opts CollectorOptions) *Collector {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		col, err := NewCollectorOptions(addr, opts)
		if err == nil {
			return col
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// emitMarkers emits n records per rank with contiguous marker values
// continuing from *next, bumping per-rank clocks monotonically.
func emitMarkers(cl *Client, ranks, n int, next *uint64) {
	for i := 0; i < n; i++ {
		*next++
		for r := 0; r < ranks; r++ {
			cl.Emit(&trace.Record{
				Kind: trace.KindMarker, Rank: r, Marker: *next,
				Start: int64(*next), End: int64(*next),
			})
		}
	}
}

// auditMarkers fails the test unless every rank's stream is exactly the
// contiguous marker sequence 1..want — no gaps (lost records) and no
// repeats (duplicated records).
func auditMarkers(t *testing.T, tr *trace.Trace, ranks int, want uint64) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		recs := tr.Rank(r)
		if uint64(len(recs)) != want {
			t.Fatalf("rank %d: %d records, want %d", r, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Marker != uint64(i+1) {
				t.Fatalf("rank %d record %d: marker %d, want %d (gap or duplicate)", r, i, rec.Marker, i+1)
			}
		}
	}
}

func TestKillAndRestartCollectorLosesNothing(t *testing.T) {
	const ranks = 2
	colOpts := CollectorOptions{Heartbeat: 5 * time.Millisecond}
	col1, err := NewCollectorOptions("127.0.0.1:0", colOpts)
	if err != nil {
		t.Fatal(err)
	}
	addr := col1.Addr()
	cl, err := DialOptions(addr, ranks, fastClient())
	if err != nil {
		t.Fatal(err)
	}

	var next uint64
	emitMarkers(cl, ranks, 50, &next)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", func() bool { return col1.Received(cl.ID()) == 50*ranks })

	// The collector dies mid-run; the client keeps emitting into its buffer.
	col1.Kill()
	if !col1.Trace().Incomplete() {
		t.Error("killed collector's trace not marked incomplete")
	}
	emitMarkers(cl, ranks, 50, &next)

	// A fresh, stateless collector takes over the same address. It
	// acknowledges 0 records, so the client retransmits the full history.
	col2 := restartCollector(t, addr, colOpts)
	defer col2.Close()
	emitMarkers(cl, ranks, 50, &next)
	cl.Flush()

	waitFor(t, "resumed stream", func() bool {
		return col2.Received(cl.ID()) == 150*ranks
	})
	got := col2.Trace()
	if err := got.Validate(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	auditMarkers(t, got, ranks, 150)
	if errs := col2.Errs(); len(errs) != 0 {
		t.Errorf("collector errors: %v", errs)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if cl.Err() != nil {
		t.Errorf("client error: %v", cl.Err())
	}
}

func TestClientSpillsToDiskDuringOutage(t *testing.T) {
	colOpts := CollectorOptions{Heartbeat: 5 * time.Millisecond}
	col1, err := NewCollectorOptions("127.0.0.1:0", colOpts)
	if err != nil {
		t.Fatal(err)
	}
	addr := col1.Addr()
	opts := fastClient()
	opts.MemLimit = 8
	opts.SpillDir = t.TempDir()
	cl, err := DialOptions(addr, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	col1.Kill()

	var next uint64
	emitMarkers(cl, 1, 100, &next)
	cl.mu.Lock()
	var spillPath string
	if cl.spill != nil {
		spillPath = cl.spill.path
	}
	memBase := cl.memBase
	cl.mu.Unlock()
	if spillPath == "" || memBase == 0 {
		t.Fatalf("no spill after 100 records with MemLimit=8 (memBase=%d)", memBase)
	}
	if _, err := os.Stat(spillPath); err != nil {
		t.Fatalf("spill file: %v", err)
	}
	if fi, err := os.Stat(filepath.Dir(spillPath)); err != nil || fi.Mode().Perm() != 0o700 {
		t.Fatalf("spill directory is not private: %v %v", fi, err)
	}

	col2 := restartCollector(t, addr, colOpts)
	defer col2.Close()
	waitFor(t, "spilled records resent", func() bool {
		return col2.Received(cl.ID()) == 100
	})
	auditMarkers(t, col2.Trace(), 1, 100)

	if err := cl.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if left, _ := os.ReadDir(opts.SpillDir); len(left) != 0 {
		t.Errorf("spill not removed on close: %v", left)
	}
}

func TestCollectorIdleTimeout(t *testing.T) {
	col, err := NewCollectorOptions("127.0.0.1:0", CollectorOptions{
		Heartbeat:   5 * time.Millisecond,
		IdleTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// A v1 peer that handshakes, sends a valid stream header, then goes
	// silent: the collector must cut it loose instead of waiting forever.
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(handshakeV1 + "2\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewFileWriter(conn, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle drop", func() bool {
		for _, e := range col.Errs() {
			if strings.Contains(e.Error(), "idle timeout") {
				return true
			}
		}
		return false
	})
	if !col.Trace().Incomplete() {
		t.Error("idle-dropped stream did not mark the trace incomplete")
	}
}

func TestCollectorCloseDuringHandshake(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A connection that never sends its handshake must not wedge Close.
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // let the collector accept it
	done := make(chan struct{})
	go func() {
		col.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a half-open handshake connection")
	}
}

// waitFor polls cond until it holds or a 5s deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
