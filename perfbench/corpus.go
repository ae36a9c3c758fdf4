package main

import (
	"fmt"
	"math/rand"

	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/trace"
)

// appBody builds the seeded body of one of the repo's apps at the given
// iteration count. The seed picks the block shape, which changes the
// virtual-time cost of every compute step (and so every timestamp) while
// the event count depends on the iterations alone.
func appBody(app string, iters int, seed int64) (func(*instr.Ctx), error) {
	rng := rand.New(rand.NewSource(seed))
	switch app {
	case "lu":
		return apps.LU(apps.LUConfig{Cols: 6 + 2*rng.Intn(3), Rows: 3 + rng.Intn(3), Iters: iters, Seed: seed}, nil), nil
	case "jacobi":
		return apps.Jacobi(apps.JacobiConfig{Cells: 12 + 4*rng.Intn(3), Iters: iters, Seed: seed}, nil), nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

// recordApp runs an app body under full instrumentation into memory.
// Message ids are assigned in real time by the runtime, so they are
// renumbered in merged (virtual-time) order to make the recording a
// function of the body alone.
func recordApp(ranks int, body func(*instr.Ctx)) (*trace.Trace, error) {
	sink := instr.NewMemorySink(ranks)
	if err := instr.New(ranks, sink, instr.LevelAll).Run(mp.Config{NumRanks: ranks}, body); err != nil {
		return nil, err
	}
	if err := sink.Err(); err != nil {
		return nil, err
	}
	tr := sink.Trace()
	byRank := make([][]trace.Record, ranks)
	for r := range byRank {
		byRank[r] = append([]trace.Record(nil), tr.Rank(r)...)
	}
	ids := make(map[uint64]uint64)
	for _, id := range tr.MergedOrder() {
		rec := &byRank[id.Rank][id.Index]
		if rec.MsgID == 0 {
			continue
		}
		n, ok := ids[rec.MsgID]
		if !ok {
			n = uint64(len(ids) + 1)
			ids[rec.MsgID] = n
		}
		rec.MsgID = n
	}
	return trace.FromRanks(byRank), nil
}

// appIters picks the iteration count that makes an app record about
// events records on ranks ranks. Events grow linearly with iterations;
// two short calibration runs measure the slope.
func appIters(app string, ranks, events int, seed int64) (int, error) {
	count := func(iters int) (int, error) {
		body, err := appBody(app, iters, seed)
		if err != nil {
			return 0, err
		}
		tr, err := recordApp(ranks, body)
		if err != nil {
			return 0, err
		}
		return tr.Len(), nil
	}
	e2, err := count(2)
	if err != nil {
		return 0, err
	}
	e4, err := count(4)
	if err != nil {
		return 0, err
	}
	per := (e4 - e2) / 2
	if iters := (events - (e2 - 2*per)) / per; iters > 1 {
		return iters, nil
	}
	return 1, nil
}

// appTrace records a seeded app run of about events records.
func appTrace(app string, ranks, events int, seed int64) (*trace.Trace, error) {
	iters, err := appIters(app, ranks, events, seed)
	if err != nil {
		return nil, err
	}
	body, err := appBody(app, iters, seed)
	if err != nil {
		return nil, err
	}
	return recordApp(ranks, body)
}

// merged returns a trace's records in its merged (virtual-time) order, the
// order a live collector receives them in.
func merged(tr *trace.Trace) []trace.Record {
	ids := tr.MergedOrder()
	out := make([]trace.Record, len(ids))
	for i, id := range ids {
		out[i] = *tr.MustAt(id)
	}
	return out
}

// Variety of the synthetic high-variety session: many distinct source
// locations, the shape on which trace-graph building grows faster than
// linearly.
var (
	variedFiles = []string{"solver.go", "mesh.go", "halo.go", "io.go", "reduce.go", "fft.go", "bc.go", "part.go"}
	variedFuncs = []string{"main", "worker", "exchange", "reduce", "pack", "unpack", "step", "flux"}
)

// variedTrace synthesizes a high-variety trace: per-rank monotone clocks
// and markers, one message tag, and locations drawn from a pool of about
// 100k distinct (file, line, func) triples, so nearly every record has a
// location of its own.
func variedTrace(ranks, events int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(ranks)
	clock := make([]int64, ranks)
	marker := make([]uint64, ranks)
	for i := 0; i < events; i++ {
		r := i % ranks
		start := clock[r]
		end := start + 1 + int64(rng.Intn(6))
		clock[r] = end
		marker[r]++
		kind := trace.KindCompute
		switch rng.Intn(3) {
		case 0:
			kind = trace.KindSend
		case 1:
			kind = trace.KindRecv
		}
		tr.MustAppend(trace.Record{Kind: kind, Rank: r, Marker: marker[r],
			Loc: trace.Location{File: variedFiles[rng.Intn(len(variedFiles))], Line: 10 + rng.Intn(1600),
				Func: variedFuncs[rng.Intn(len(variedFuncs))]},
			Start: start, End: end, Src: r, Dst: (r + 1) % ranks,
			Bytes: 8 << rng.Intn(8), MsgID: uint64(i + 1), Name: "op"})
	}
	return tr
}
