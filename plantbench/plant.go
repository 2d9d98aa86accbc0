package main

import (
	"time"

	"ftqc/internal/bits"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
)

// feed is what a decode loop drains: a live source or a recorded tape.
type feed interface {
	NextLayers(layerX, layerZ []bits.Vec)
	CloseLayers(layerX, layerZ []bits.Vec)
}

// tape is one batch of difference layers recorded from a source, one
// word per check plane (at most 64 lanes), closing round last, with the
// source's winding parities.
type tape struct {
	nc, rounds int
	words      []uint64
	w          windings
	at         int // replay cursor of NextLayers
}

func newTape(nc, lanes, rounds int) *tape {
	return &tape{nc: nc, rounds: rounds, words: make([]uint64, (rounds+1)*2*nc), w: newWindings(lanes)}
}

// record fills the tape from a fresh source and returns the time spent
// inside the source's NextLayers/CloseLayers calls.
func (tp *tape) record(src spacetime.LayerFeed, x, z []bits.Vec) time.Duration {
	var in time.Duration
	for t := 0; t <= tp.rounds; t++ {
		t0 := time.Now()
		if t < tp.rounds {
			src.NextLayers(x, z)
		} else {
			src.CloseLayers(x, z)
		}
		in += time.Since(t0)
		row := tp.words[t*2*tp.nc:]
		for c := 0; c < tp.nc; c++ {
			row[c], row[tp.nc+c] = x[c].Word(0), z[c].Word(0)
		}
	}
	tp.w.read(src)
	tp.at = 0
	return in
}

// load writes round t (t == rounds: the closing round) into x and z.
func (tp *tape) load(t int, x, z []bits.Vec) {
	row := tp.words[t*2*tp.nc:]
	for c := 0; c < tp.nc; c++ {
		x[c].SetWord(0, row[c])
		z[c].SetWord(0, row[tp.nc+c])
	}
}

func (tp *tape) NextLayers(x, z []bits.Vec) {
	tp.load(tp.at, x, z)
	tp.at++
}

func (tp *tape) CloseLayers(x, z []bits.Vec) { tp.load(tp.rounds, x, z) }

// layerTrace accumulates the per-layer measurements of traced decode
// loops, taken around the benchmark's own calls into the source and
// the streaming decoder, plus the submissions seen by the recorder.
type layerTrace struct {
	rec *recorder

	rounds, shotRounds         int
	wall, source, push, finish time.Duration
	probe                      time.Duration // inside mallocs(), left out of the shares
	pushNs, finishMs           []float64     // non-sliding Pushes; Finishes
	footprint                  []float64
	allocs, defects            uint64
	slides                     int
}

// decodeLoop streams `rounds` rounds of f through d, then finishes it,
// and returns the loop's wall time. Every Push that slides appends its
// wall time in ms to reactions; heap, when non-nil, is sampled after
// every Push. A traced loop (tr non-nil) also times the source, every
// Push and the Finish, and counts allocations inside the Pushes; the
// caller routes the decoder's submissions through tr.rec.
func decodeLoop(d *stream.Decoder, f feed, rounds int, x, z []bits.Vec, reactions *[]float64, heap *heapProbe, tr *layerTrace) time.Duration {
	start := time.Now()
	for t := 0; t < rounds; t++ {
		if tr == nil {
			f.NextLayers(x, z)
			s0 := d.Slides()
			p0 := time.Now()
			d.Push(x, z)
			dt := time.Since(p0)
			if d.Slides() != s0 {
				*reactions = append(*reactions, ms(dt))
			}
			if heap != nil {
				heap.sample()
			}
			continue
		}
		t0 := time.Now()
		f.NextLayers(x, z)
		tr.source += time.Since(t0)
		s0 := d.Slides()
		tr.rec.beginPush()
		q0 := time.Now()
		m0 := mallocs()
		p0 := time.Now()
		d.Push(x, z)
		p1 := time.Now()
		tr.allocs += mallocs() - m0
		tr.probe += p0.Sub(q0) + time.Since(p1)
		dt := p1.Sub(p0)
		tr.push += dt
		if d.Slides() != s0 {
			*reactions = append(*reactions, ms(dt))
		} else {
			tr.pushNs = append(tr.pushNs, float64(dt))
		}
	}
	if tr == nil {
		f.CloseLayers(x, z)
		d.Finish(x, z)
		return time.Since(start)
	}
	t0 := time.Now()
	f.CloseLayers(x, z)
	tr.source += time.Since(t0)
	tr.rec.finishing = true
	f0 := time.Now()
	d.Finish(x, z)
	dt := time.Since(f0)
	tr.rec.finishing = false
	wall := time.Since(start)
	tr.finish += dt
	tr.finishMs = append(tr.finishMs, ms(dt))
	tr.rounds += rounds
	tr.shotRounds += rounds * d.Lanes()
	tr.wall += wall
	tr.defects += d.DefectsObserved()
	tr.slides += d.Slides()
	tr.footprint = append(tr.footprint, float64(d.FootprintBytes()))
	return wall
}

// report sets the source, stream and decoder metrics.
func (tr *layerTrace) report(r *run) {
	sr := float64(tr.shotRounds)
	wall := float64(tr.wall - tr.probe)
	r.set("source.ns_per_shot_round", float64(tr.source)/sr)
	r.set("source.share", float64(tr.source)/wall)
	r.set("stream.share", float64(tr.push+tr.finish)/wall)
	r.set("stream.push_ns", median(tr.pushNs))
	r.set("stream.finish_ms", median(tr.finishMs))
	r.set("stream.defects_per_shot_round", float64(tr.defects)/sr)
	r.set("stream.allocs_per_round", float64(tr.allocs)/float64(tr.rounds))
	r.set("stream.footprint_bytes", median(tr.footprint))
	rec := tr.rec
	subs := rec.slideSubs + rec.finishSubs
	r.set("decoder.submissions_per_slide", float64(rec.slideSubs)/float64(tr.slides))
	r.set("decoder.shots_per_submission", float64(rec.shots)/float64(subs))
	r.set("decoder.defects_per_shot", float64(rec.defects)/float64(rec.shots))
	r.set("decoder.dispatch_us", float64(rec.dispatch)/1e3/float64(subs))
	r.set("decoder.guarded_share", ratio(rec.guarded, rec.firstShots))
	r.set("decoder.fallback_share", ratio(rec.resent, rec.guarded))
	r.set("decoder.skip_share", 1-ratio(rec.sectorSlides, 2*tr.slides))
	ns, err := rec.replay()
	if r.op(err, "decoder replay") {
		r.set("decoder.replay_ns_per_shot", ns)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverTrace accumulates the server-layer measurements of traced
// passes: Open and Submit times, the drain after the last CloseWith,
// and the sessions' own statistics.
type serverTrace struct {
	passes         int
	wall, submit   time.Duration
	openMs, drains []float64
	submitUs       []float64
	hists          []server.HistSnapshot
	slides         []float64
	density        []float64
}

func (st *serverTrace) observe(s *server.Session) {
	stats := s.Stats()
	st.hists = append(st.hists, stats.Latency)
	st.slides = append(st.slides, float64(stats.Slides))
	st.density = append(st.density, stats.DefectDensity)
}

func (st *serverTrace) report(r *run) {
	r.set("server.open_ms", median(st.openMs))
	r.set("server.submit_us", median(st.submitUs))
	r.set("server.submit_share", float64(st.submit)/float64(st.wall))
	r.set("server.drain_ms", median(st.drains))
	q := mergedLatency(st.hists, 0.5, 0.99)
	r.set("server.commit_p50_ms", q[0])
	r.set("server.commit_p99_ms", q[1])
	r.set("server.slides_per_session", median(st.slides))
	r.set("server.defect_density", median(st.density))
}

// servePass opens one session per tape on srv, submits every round
// round-robin from this goroutine, closes each session with its closing
// round and collects every result. heap, when non-nil, is sampled after
// every round of submissions. It returns the pass's wall time and the
// results (zero where a session failed).
func servePass(r *run, srv *server.Server, cfg server.SessionConfig, tapes []*tape, x, z []bits.Vec, heap *heapProbe, st *serverTrace) (time.Duration, []server.SessionResult) {
	start := time.Now()
	sessions := make([]*server.Session, len(tapes))
	for i := range sessions {
		t0 := time.Now()
		s, err := srv.Open(cfg)
		if st != nil {
			st.openMs = append(st.openMs, ms(time.Since(t0)))
		}
		if !r.op(err, "server open") {
			return time.Since(start), nil
		}
		sessions[i] = s
	}
	rounds := tapes[0].rounds
	for t := 0; t < rounds; t++ {
		for i, s := range sessions {
			tapes[i].load(t, x, z)
			if st == nil {
				r.op(s.Submit(x, z), "server submit")
				continue
			}
			t0 := time.Now()
			err := s.Submit(x, z)
			dt := time.Since(t0)
			st.submit += dt
			st.submitUs = append(st.submitUs, float64(dt)/1e3)
			r.op(err, "server submit")
		}
		if heap != nil {
			heap.sample()
		}
	}
	for i, s := range sessions {
		tapes[i].load(rounds, x, z)
		r.op(s.CloseWith(x, z), "server close")
	}
	closed := time.Now()
	results := make([]server.SessionResult, len(sessions))
	for i, s := range sessions {
		res, err := s.Wait()
		if r.op(err, "server wait") {
			results[i] = res
		}
	}
	wall := time.Since(start)
	if st != nil {
		st.passes++
		st.wall += wall
		st.drains = append(st.drains, ms(time.Since(closed)))
		for _, s := range sessions {
			st.observe(s)
		}
	}
	return wall, results
}
