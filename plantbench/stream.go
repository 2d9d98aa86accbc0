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
)

// setupReps is how many times a run builds its plant and warms it up;
// setup_s is the median.
const setupReps = 5

// Sampler stream ids of warm-up units, apart from the timed units'
// (which count up from 0).
const warmupStream = 1 << 40

// streamSpec is one closed-loop streaming workload: a single
// circuit-level session, batches of `lanes` shots of `rounds` noisy
// rounds, each batch drawn from a fresh sampler keyed by (seed, batch
// index).
type streamSpec struct {
	l, lanes, rounds int
	P                noise.Params
}

func (sp streamSpec) serverConfig() server.SessionConfig {
	return server.CircuitLevel(sp.l, sp.lanes, sp.P)
}

// newSession builds the stream session the server would build for the
// same configuration (default window, weights over the window horizon).
func (sp streamSpec) newSession() (*stream.Session, error) {
	c := sp.serverConfig()
	return stream.NewCircuitSession(sp.l, c.Window, c.Commit, c.WH, c.WV, c.WD)
}

func (sp streamSpec) newSource(seed, batch uint64) spacetime.LayerFeed {
	return spacetime.NewCircuitLayerSource(sp.l, sp.P, sp.lanes, frame.NewAggregateSampler(seed, batch))
}

// runStream measures closed-loop batches through one stream session:
// the generator samples a round, pushes it, and samples the next only
// when Push returns.
func runStream(r *run, sp streamSpec) {
	nc := sp.l * sp.l
	x, z := bits.NewVecs(nc, sp.lanes), bits.NewVecs(nc, sp.lanes)
	w := newWindings(sp.lanes)
	reactions := make([]float64, 0, 1<<14)
	batch := func(sess *stream.Session, idx uint64, heap *heapProbe, tr *layerTrace) (*stream.Decoder, time.Duration, int) {
		src := sp.newSource(r.seed, idx)
		if tr != nil {
			sess.SetSubmitter(tr.rec)
			defer sess.SetSubmitter(nil)
		}
		d := sess.NewDecoder(sp.lanes)
		wall := decodeLoop(d, src, sp.rounds, x, z, &reactions, heap, tr)
		if !r.op(d.Err(), "stream decode") {
			return d, wall, 0
		}
		r.check(d.Committed() == sp.rounds, "stream batch %d committed %d of %d rounds", idx, d.Committed(), sp.rounds)
		w.read(src)
		fx, fz := d.Corrections()
		return d, wall, logicalFailures(sess.Window().Code(), w, fx, fz)
	}

	// Set-up: build the session and run one untimed warm-up batch.
	var sess *stream.Session
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		s, err := sp.newSession()
		if !r.op(err, "stream session") {
			return
		}
		sess = s
		batch(sess, warmupStream+uint64(i), nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sess.Close()
	reactions = reactions[:0]

	// Timed batches. Traced runs alternate untraced and traced batches;
	// the end-to-end figures come from untraced batches only.
	heap := newHeapProbe()
	var tr *layerTrace
	if r.trace {
		tr = &layerTrace{rec: newRecorder(sess.Pool())}
	}
	var plain, traced []float64
	var ends []int // end of each untraced batch's reaction samples
	var elapsed time.Duration
	var fails, shots int
	var firstX, firstZ []bits.Vec
	for idx := uint64(0); elapsed.Seconds() < r.seconds || len(reactions) < minReactions; idx++ {
		var btr *layerTrace
		if r.trace && idx%2 == 1 {
			btr = tr
		}
		n := len(reactions)
		runtime.GC() // every unit starts from a collected heap, so its peak is its own
		d, wall, f := batch(sess, idx, heap, btr)
		elapsed += wall
		fails += f
		shots += sp.lanes
		if btr != nil {
			traced = append(traced, wall.Seconds())
			reactions = reactions[:n] // traced reaction times are not end-to-end figures
			continue
		}
		plain = append(plain, wall.Seconds())
		ends = append(ends, len(reactions))
		if idx == 0 {
			fx, fz := d.Corrections()
			firstX, firstZ = cloneVecs(fx), cloneVecs(fz)
		}
	}
	unit := median(plain)
	r.set("shot_rounds_per_s", float64(sp.lanes*sp.rounds)/unit)
	r.set("rounds_per_s", float64(sp.rounds)/unit)
	setReactions(r, reactions, ends)
	r.set("setup_s", median(setups))
	r.set("peak_heap_mb", float64(heap.peak)/(1<<20))
	r.set("logical_fail_rate", float64(fails)/float64(shots))
	r.note("timed batches %d (%d untraced, median %.4f s), logical failures %d of %d shots",
		len(plain)+len(traced), len(plain), unit, fails, shots)

	// Output check: the first timed batch decoded again from scratch
	// must commit bit-identical frames.
	tp := newTape(nc, sp.lanes, sp.rounds)
	tp.record(sp.newSource(r.seed, 0), x, z)
	ref := sess.NewDecoder(sp.lanes)
	ref.SetIncremental(false)
	decodeLoop(ref, tp, sp.rounds, x, z, new([]float64), nil, nil)
	rx, rz := ref.Corrections()
	if r.op(ref.Err(), "stream reference decode") {
		r.check(framesEqual(firstX, firstZ, rx, rz), "incremental and from-scratch frames differ on batch 0")
	}
	if !r.trace {
		return
	}

	// Traced only: the same batch through a decode server, whose frames
	// must match too, gives the server-layer figures for this workload.
	tr.report(r)
	srv := server.New(server.Config{})
	st := &serverTrace{}
	_, res := servePass(r, srv, sp.serverConfig(), []*tape{tp}, x, z, nil, st)
	srv.Shutdown()
	if res != nil {
		r.check(framesEqual(firstX, firstZ, res[0].FramesX, res[0].FramesZ), "server and stream frames differ on batch 0")
	}
	st.report(r)
	r.set("trace.overhead_share", median(traced)/median(plain)-1)
}
