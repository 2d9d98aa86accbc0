package main

import (
	"runtime"
	"time"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/toric"
)

// fleetSpec is the closed-loop serving workload: passes of `sessions`
// circuit-level sessions on one default-config server, fed round-robin
// by one generator from syndrome rounds recorded before each pass.
type fleetSpec struct {
	l, lanes, rounds, sessions int
	P                          noise.Params
}

func runFleet(r *run, fs fleetSpec) {
	cfg := server.CircuitLevel(fs.l, fs.lanes, fs.P)
	nc := fs.l * fs.l
	x, z := bits.NewVecs(nc, fs.lanes), bits.NewVecs(nc, fs.lanes)
	tapes := make([]*tape, fs.sessions)
	for i := range tapes {
		tapes[i] = newTape(nc, fs.lanes, fs.rounds)
	}
	// record fills the tapes of one pass; its source time is not part
	// of the pass, because producing rounds is the QPU's job.
	record := func(pass uint64) time.Duration {
		var in time.Duration
		for i, tp := range tapes {
			smp := frame.NewAggregateSampler(r.seed, pass*uint64(fs.sessions)+uint64(i))
			in += tp.record(spacetime.NewCircuitLayerSource(fs.l, fs.P, fs.lanes, smp), x, z)
		}
		return in
	}
	// Set-up: start the server, open the first fleet and run it as an
	// untimed warm-up pass.
	var srv *server.Server
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Shutdown()
		}
		record(warmupStream + uint64(i))
		t0 := time.Now()
		srv = server.New(server.Config{})
		servePass(r, srv, cfg, tapes, x, z, nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.Shutdown()

	// Pushes inside the server are out of reach, so after every pass one
	// of its sessions (a different one each pass) is decoded again by a
	// standalone stream decoder over the same rounds. Its frames must
	// equal the session's, and its sliding Pushes are the workload's
	// reaction samples, spread over the run like the passes.
	ref, err := stream.NewCircuitSession(fs.l, cfg.Window, cfg.Commit, cfg.WH, cfg.WV, cfg.WD)
	if !r.op(err, "reference session") {
		return
	}
	defer ref.Close()
	var reactions []float64
	var ends []int // end of each replayed session's reaction samples

	heap := newHeapProbe()
	var st *serverTrace
	var source time.Duration
	if r.trace {
		st = &serverTrace{}
	}
	var plain, traced []float64
	var elapsed time.Duration
	var fails, shots int
	code := toric.Cached(fs.l)
	for pass := uint64(0); elapsed.Seconds() < r.seconds || len(reactions) < minReactions; pass++ {
		in := record(pass)
		var pst *serverTrace
		hp := heap
		if r.trace && pass%2 == 1 {
			pst, hp = st, nil
			source += in
		}
		runtime.GC() // every unit starts from a collected heap, so its peak is its own
		wall, res := servePass(r, srv, cfg, tapes, x, z, hp, pst)
		elapsed += wall
		for i := range res {
			if res[i].FramesX != nil {
				fails += logicalFailures(code, tapes[i].w, res[i].FramesX, res[i].FramesZ)
				r.check(res[i].Finished && res[i].Committed == fs.rounds,
					"session %d of pass %d committed %d of %d rounds", i, pass, res[i].Committed, fs.rounds)
			}
		}
		shots += fs.sessions * fs.lanes
		if pst != nil {
			traced = append(traced, wall.Seconds())
		} else {
			plain = append(plain, wall.Seconds())
		}
		if i := int(pass % uint64(fs.sessions)); res != nil && res[i].FramesX != nil {
			d := ref.NewDecoder(fs.lanes)
			tapes[i].at = 0
			decodeLoop(d, tapes[i], fs.rounds, x, z, &reactions, nil, nil)
			ends = append(ends, len(reactions))
			fx, fz := d.Corrections()
			if r.op(d.Err(), "reference decode") {
				r.check(framesEqual(fx, fz, res[i].FramesX, res[i].FramesZ), "server and standalone frames differ on session %d of pass %d", i, pass)
			}
		}
	}
	unit := median(plain)
	r.set("rounds_per_s", float64(fs.sessions*fs.rounds)/unit)
	r.set("shot_rounds_per_s", float64(fs.sessions*fs.rounds*fs.lanes)/unit)
	setReactions(r, reactions, ends)
	r.set("setup_s", median(setups))
	r.set("peak_heap_mb", float64(heap.peak)/(1<<20))
	r.set("logical_fail_rate", float64(fails)/float64(shots))
	r.note("timed passes %d (%d untraced, median %.4f s), logical failures %d of %d shots",
		len(plain)+len(traced), len(plain), unit, fails, shots)
	if !r.trace {
		return
	}

	// Traced only: the last pass's sessions through the standalone
	// decoder, traced, for the workload's stream and decoder figures.
	tr := &layerTrace{rec: newRecorder(ref.Pool())}
	ref.SetSubmitter(tr.rec)
	for _, tp := range tapes {
		tp.at = 0
		decodeLoop(ref.NewDecoder(fs.lanes), tp, fs.rounds, x, z, new([]float64), nil, tr)
	}
	tr.report(r)
	// The pass's rounds were recorded before it ran, so the source's
	// share is of the whole produce-and-serve pipeline.
	r.set("source.ns_per_shot_round", float64(source)/float64(st.passes*fs.sessions*fs.rounds*fs.lanes))
	r.set("source.share", float64(source)/float64(source+st.wall))
	st.report(r)
	r.set("trace.overhead_share", median(traced)/median(plain)-1)
}
