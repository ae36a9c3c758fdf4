package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tracedbg/internal/trace"
)

func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCorporaDeterministic pins that a seed gives byte-identical corpora,
// and that another seed gives other inputs.
func TestCorporaDeterministic(t *testing.T) {
	for _, app := range []string{"lu", "jacobi"} {
		a, err := appTrace(app, 4, 2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := appTrace(app, 4, 2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, a), encode(t, b)) {
			t.Errorf("%s: same seed, different corpus", app)
		}
		c, err := appTrace(app, 4, 2000, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(encode(t, a), encode(t, c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", app)
		}
		if n := a.Len(); n < 1800 || n > 2300 {
			t.Errorf("%s: %d records, want about 2000", app, n)
		}
	}
	if !bytes.Equal(encode(t, variedTrace(8, 3000, 7)), encode(t, variedTrace(8, 3000, 7))) {
		t.Error("varied: same seed, different corpus")
	}
}

// TestOpSequencesDeterministic pins that a seed gives the same query op
// sequence and the same stopline plan.
func TestOpSequencesDeterministic(t *testing.T) {
	app, err := appTrace("lu", 8, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	varied := variedTrace(8, 2000, 5)
	ss := []*qsession{{name: "app", tr: app, locs: sites(app)}, {name: "varied", tr: varied, locs: sites(varied)}}
	a := fmt.Sprint(genQueryOps(5, ss, 500))
	if b := fmt.Sprint(genQueryOps(5, ss, 500)); a != b {
		t.Error("query ops differ for one seed")
	}
	if b := fmt.Sprint(genQueryOps(6, ss, 500)); a == b {
		t.Error("query ops equal for seeds 5 and 6")
	}
	plan := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < 100; i++ {
			k, vt, ev := stopPlan(rng, app)
			fmt.Fprintln(&sb, k, vt, ev)
		}
		return sb.String()
	}
	if plan(5) != plan(5) {
		t.Error("stopline plan differs for one seed")
	}
}

// TestTinyWorkloads runs every workload at a tiny size, traced and
// untraced: each must pass its own audits and report every metric.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range []string{"ingest", "live", "query", "replay"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				var out bytes.Buffer
				c := &config{workload: w, seed: 3, seconds: 0.4, trace: traced, scale: 0.01, work: t.TempDir(), out: &out}
				res, err := runAll(c)
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 {
					t.Fatalf("no operations attempted\n%s", out.String())
				}
				if bad := unexpectedFailure(out.String(), res.Attempted); bad != "" {
					t.Fatalf("attempted=%d failed=%d, unexpected %q\n%s", res.Attempted, res.Failed, bad, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
						t.Errorf("metric %s = %+v", m.name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
			})
		}
	}
}

// knownReplayRace matches the failures of a known defect: Session.Replay
// installs the stop set only after the replayed world has started, so on a
// tiny run a rank can pass an early stopline before its threshold exists
// and never park (or park late). NOTES.md names it.
var knownReplayRace = regexp.MustCompile(`^replay +failed: (stop-[a-z-]+|undo)(: debug: wait timed out.*|-wrong-marker) x(\d+)$`)

// unexpectedFailure returns the first failure line of the report that is
// not the known defect, or a summary when the known defect failed more
// operations than it explains: about one stop in a thousand, so at most
// one op or 1% of the attempted ones, whichever is more.
func unexpectedFailure(report string, attempted int64) string {
	var race int64
	for _, l := range strings.Split(report, "\n") {
		if !strings.Contains(l, " failed: ") {
			continue
		}
		m := knownReplayRace.FindStringSubmatch(l)
		if m == nil {
			return l
		}
		n, _ := strconv.ParseInt(m[3], 10, 64)
		race += n
	}
	if allowed := max(1, attempted/100); race > allowed {
		return fmt.Sprintf("%d replay ops failed by the known race, more than the %d it explains", race, allowed)
	}
	return ""
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the ones
// the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, command reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, command reports %+v", c.what, i, g, m)
			}
		}
	}
}
