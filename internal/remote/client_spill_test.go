package remote

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tracedbg/internal/iofault"
)

// TestClientSpillReadbackLinear streams a backlog through a slow credit
// window — 64 records per 20 ms heartbeat — so almost every record spills
// and is later read back by the credit pump. The readback counter must stay
// within the spilled records plus one chunk per reconnect: the cursor
// continues where the previous grant stopped instead of rescanning the
// spill from its first record.
func TestClientSpillReadbackLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("credit-paced: takes about 16 s")
	}
	const records = 50000
	d, err := NewDaemon("127.0.0.1:0", DaemonOptions{
		Dir:          t.TempDir(),
		Heartbeat:    20 * time.Millisecond,
		QueueRecords: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	m := metrics()
	read0, spilled0, reconnects0 := m.clientSpillReadback.Value(), m.clientSpillRecords.Value(), m.clientReconnects.Value()
	o := sessionClient("backlog")
	o.SpillDir = t.TempDir()
	o.DrainTimeout = 2 * time.Minute
	cl, err := DialOptions(d.Addr(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, records, &next)
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitDone(t, d, "backlog")
	auditMarkers(t, openSession(t, d, "backlog"), 1, records)

	read := m.clientSpillReadback.Value() - read0
	spilled := m.clientSpillRecords.Value() - spilled0
	reconnects := m.clientReconnects.Value() - reconnects0
	t.Logf("%d records: %d spilled, %d read back, %d reconnects", records, spilled, read, reconnects)
	if spilled < records/2 {
		t.Fatalf("only %d of %d records spilled; the backlog did not build", spilled, records)
	}
	if limit := spilled + reconnects*spillChunkRecords; read > limit {
		t.Errorf("read back %d spilled records, want at most %d (spilled %d + %d reconnects × %d)",
			read, limit, spilled, reconnects, spillChunkRecords)
	}
}

// TestClientSpillDiskFull gives the spill a disk that fills up. The client
// must stop at a gap-free prefix: everything buffered before the failure
// reaches the daemon, every later Emit is refused, and Close names the
// disk error and the refused count.
func TestClientSpillDiskFull(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	in, err := iofault.NewInjector(iofault.OS(), &iofault.Plan{
		Seed:  3,
		Rules: []iofault.Rule{iofault.ENOSPCAfter(2 << 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	o := sessionClient("diskfull")
	o.MemLimit = 8
	o.SpillDir = spillDir
	o.FS = in
	cl, err := DialOptions(d.Addr(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	const emitted = 3000
	var next uint64
	emitMarkers(cl, 1, emitted, &next)
	if !iofault.IsDiskFull(cl.Err()) {
		t.Fatalf("client error = %v, want the spill's disk-full error", cl.Err())
	}
	kept := cl.Total()
	if kept == 0 || kept >= emitted {
		t.Fatalf("client kept %d of %d records; the spill never filled", kept, emitted)
	}
	err = cl.Close()
	if !iofault.IsDiskFull(err) {
		t.Errorf("close error = %v, want the spill's disk-full error", err)
	}
	if want := fmt.Sprintf("%d later record(s) refused", emitted-kept); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("close error = %v, want it to say %q", err, want)
	}
	waitDone(t, d, "diskfull")
	auditMarkers(t, openSession(t, d, "diskfull"), 1, kept)
	if left, _ := os.ReadDir(spillDir); len(left) != 0 {
		t.Errorf("spill directory not emptied on close: %v", left)
	}
}

// FuzzParseAck feeds arbitrary lines to the acknowledgement parser and
// arbitrary counts to the writer: parsing must not panic, and whatever
// parses must survive writeAck and parse back to the same values.
func FuzzParseAck(f *testing.F) {
	f.Add("TDBGACK 0\n", uint64(0), uint64(0))
	f.Add("TDBGACK 12 64\n", uint64(12), uint64(64))
	f.Add("TDBGACK 18446744073709551615 1\n", uint64(1<<63), uint64(1))
	f.Add("TDBGACK\n", uint64(7), uint64(0))
	f.Add("TDBGACK 1 2 3\n", uint64(1), uint64(2))
	f.Add("TDBGQUO disk-error\n", uint64(0), uint64(5))
	f.Fuzz(func(t *testing.T, line string, n, win uint64) {
		roundTrip := func(ack, w uint64) {
			var buf bytes.Buffer
			if err := writeAck(&buf, ack, w); err != nil {
				t.Fatal(err)
			}
			ack2, w2, ok := parseAck(buf.String())
			if !ok || ack2 != ack || w2 != w {
				t.Fatalf("writeAck(%d, %d) = %q parses to (%d, %d, %v)", ack, w, buf.String(), ack2, w2, ok)
			}
		}
		if ack, w, ok := parseAck(line); ok {
			roundTrip(ack, w)
		}
		roundTrip(n, win)
	})
}

// FuzzParseReject feeds arbitrary lines to the rejection parser: it must
// not panic, must always name a reason, and its result must survive the
// daemon's line format and parse back unchanged.
func FuzzParseReject(f *testing.F) {
	f.Add("TDBGREJ max-sessions 250\n")
	f.Add("TDBGREJ rank-mismatch -1\n")
	f.Add("TDBGREJ\n")
	f.Add("TDBGREJ degraded notanumber\n")
	f.Add("TDBGREJ disk-budget 9223372036854775807\n")
	f.Add("TDBGREJ draining 9223372036854775 extra\n")
	f.Fuzz(func(t *testing.T, line string) {
		e := parseReject(line)
		if e.Reason == "" {
			t.Fatalf("parseReject(%q) has no reason", line)
		}
		if e.RetryAfter < 0 && e.RetryAfter != -1 {
			t.Fatalf("parseReject(%q) retry-after %v: only -1 means permanent", line, e.RetryAfter)
		}
		back := rejectLine(e.Reason, e.RetryAfter)
		if e2 := parseReject(back); *e2 != *e {
			t.Fatalf("parseReject(%q) = %+v, but its line %q parses to %+v", line, *e, back, *e2)
		}
	})
}
