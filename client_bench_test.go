package tracedbg_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"tracedbg/internal/remote"
	"tracedbg/internal/trace"
)

// Credit the backlog sink keeps open: it acknowledges every ackEvery
// records with a window of creditWindow beyond them, so the client runs
// window-stalled and its pump feeds the wire from the spill.
const (
	creditWindow = 512
	ackEvery     = 128
)

// backlogSink is a minimal v3 collector over loopback: it grants credit as
// it decodes records and signals done when a connection has delivered
// want records.
type backlogSink struct {
	ln   net.Listener
	want uint64
	done chan struct{}
}

func (s *backlogSink) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.stream(conn)
	}
}

func (s *backlogSink) stream(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	if _, err := br.ReadString('\n'); err != nil { // handshake
		return
	}
	fmt.Fprintf(conn, "TDBGACK 0 %d\n", creditWindow)
	sc, err := trace.NewScanner(br)
	if err != nil {
		return
	}
	for n := uint64(1); ; n++ {
		if _, err := sc.Next(); err != nil {
			return
		}
		if n%ackEvery == 0 {
			fmt.Fprintf(conn, "TDBGACK %d %d\n", n, creditWindow)
		}
		if n == s.want {
			s.done <- struct{}{}
		}
	}
}

// BenchmarkClientBacklog measures what a backlog costs the client per
// record: each iteration emits size records ahead of a credit window into
// a fresh client with a 256-record ring, so at both sizes nearly every
// record is spilled and read back by the credit pump before it reaches
// the wire. The buffer is O(1) per record, so ns/record must not depend on
// size.
func BenchmarkClientBacklog(b *testing.B) {
	for _, size := range []int{5000, 200000} {
		b.Run(fmt.Sprintf("%dk", size/1000), func(b *testing.B) { benchClientBacklog(b, size) })
	}
}

func benchClientBacklog(b *testing.B, size int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	sink := &backlogSink{ln: ln, want: uint64(size), done: make(chan struct{}, 1)}
	go sink.serve()
	spill := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := remote.DialOptions(ln.Addr().String(), daemonBenchRanks, remote.ClientOptions{
			SessionID: fmt.Sprintf("backlog-%d", i), MemLimit: 256, SpillDir: spill,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchEmit(b, cl, size)
		select {
		case <-sink.done:
		case <-time.After(time.Minute):
			b.Fatalf("sink did not receive %d records", size)
		}
		b.StopTimer()
		if err := cl.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
}
