package main

import (
	"time"

	"ftqc/internal/decoder"
)

// recorder is the benchmark-side stream.Submitter of traced units: it
// counts and times every decode submission, copies the shots of the
// first submissions into preallocated arenas (so recording allocates
// nothing inside the timed Pushes), and forwards each submission to
// the session's pool unchanged.
type recorder struct {
	pool *decoder.Service

	// Phase of the decoder call in progress, set by the caller around
	// each Push and Finish: slide submissions and closing-volume
	// submissions are counted apart.
	finishing bool
	waves     [2]batchWaves // per sector batch: submissions since the Push began

	slideSubs, finishSubs int
	shots, defects        int
	firstShots            int // shots of slides' first waves
	guarded               int // first-wave shots carrying a Guard
	resent                int // shots re-sent in a slide's second wave
	sectorSlides          int // sector-slides that submitted a first wave
	dispatch              time.Duration

	// Recorded shots for the post-run replay.
	subs   []recSub
	recs   []recShot
	ints   []int
	guards []int32
}

type batchWaves struct {
	b *decoder.Batch
	n int
}

type recSub struct {
	g      *decoder.Graph
	lo, hi int // recs[lo:hi]
}

// recShot locates one shot's copied lists in the arenas and keeps the
// band and budgets of its cluster extraction, if it had one.
type recShot struct {
	def, era, guard [2]int
	comps           bool
	lo, hi          int32
	budget          [4]int // clusters, nodes, defects, corrections
}

const (
	recMaxShots = 1 << 14
	recMaxInts  = 1 << 20
)

func newRecorder(pool *decoder.Service) *recorder {
	return &recorder{
		pool:   pool,
		subs:   make([]recSub, 0, recMaxShots),
		recs:   make([]recShot, 0, recMaxShots),
		ints:   make([]int, 0, recMaxInts),
		guards: make([]int32, 0, recMaxInts),
	}
}

// beginPush resets the per-slide wave counters.
func (r *recorder) beginPush() { r.waves = [2]batchWaves{} }

func (r *recorder) ResubmitOn(g *decoder.Graph, b *decoder.Batch, shots []decoder.Shot) error {
	if r.finishing {
		r.finishSubs++
	} else {
		r.slideSubs++
		wave := r.wave(b)
		switch wave {
		case 0:
			r.sectorSlides++
			r.firstShots += len(shots)
			for i := range shots {
				if shots[i].Guard != nil {
					r.guarded++
				}
			}
		case 1:
			r.resent += len(shots)
		}
	}
	r.shots += len(shots)
	for i := range shots {
		r.defects += len(shots[i].Defects)
	}
	r.record(g, shots)
	t0 := time.Now()
	err := r.pool.ResubmitOn(g, b, shots)
	r.dispatch += time.Since(t0)
	return err
}

// wave returns how many earlier submissions batch b made since the
// current Push began: 0 is a slide's first wave, more are re-sends.
func (r *recorder) wave(b *decoder.Batch) int {
	for i := range r.waves {
		w := &r.waves[i]
		if w.b == b {
			w.n++
			return w.n - 1
		}
		if w.b == nil {
			w.b, w.n = b, 1
			return 0
		}
	}
	return 1
}

func (r *recorder) record(g *decoder.Graph, shots []decoder.Shot) {
	needInts, needGuards := 0, 0
	for i := range shots {
		needInts += len(shots[i].Defects) + len(shots[i].Erased)
		needGuards += len(shots[i].Guard)
	}
	if len(r.recs)+len(shots) > cap(r.recs) || len(r.ints)+needInts > cap(r.ints) ||
		len(r.guards)+needGuards > cap(r.guards) {
		return
	}
	lo := len(r.recs)
	for i := range shots {
		s := &shots[i]
		var rs recShot
		rs.def = r.appendInts(s.Defects)
		rs.era = r.appendInts(s.Erased)
		rs.guard[0] = len(r.guards)
		r.guards = append(r.guards, s.Guard...)
		rs.guard[1] = len(r.guards)
		if c := s.Comps; c != nil {
			rs.comps = true
			rs.lo, rs.hi = c.Lo, c.Hi
			rs.budget = [4]int{cap(c.NodeOff) - 1, cap(c.Node), cap(c.Def), cap(c.Corr)}
		}
		r.recs = append(r.recs, rs)
	}
	r.subs = append(r.subs, recSub{g: g, lo: lo, hi: len(r.recs)})
}

func (r *recorder) appendInts(xs []int) [2]int {
	lo := len(r.ints)
	r.ints = append(r.ints, xs...)
	return [2]int{lo, len(r.ints)}
}

// replay decodes every recorded submission again on a fresh
// single-worker pool and returns the mean time per shot. Guarded shots
// get cluster extractions with the recorded band and budgets, so the
// replay repeats the recorded work, guard aborts included.
func (r *recorder) replay() (nsPerShot float64, err error) {
	if len(r.recs) == 0 {
		return 0, nil
	}
	pool := decoder.NewPool(1)
	defer pool.Close()
	widest := 0
	for _, sub := range r.subs {
		widest = max(widest, sub.hi-sub.lo)
	}
	shots := make([]decoder.Shot, 0, widest)
	comps := make([]decoder.Components, widest)
	budgets := make([][4]int, widest)
	corrs := make([][]int32, widest)
	var total time.Duration
	for _, sub := range r.subs {
		shots = shots[:0]
		for i, rs := range r.recs[sub.lo:sub.hi] {
			s := decoder.Shot{
				Defects: r.ints[rs.def[0]:rs.def[1]:rs.def[1]],
				Erased:  r.ints[rs.era[0]:rs.era[1]:rs.era[1]],
				Guard:   r.guards[rs.guard[0]:rs.guard[1]:rs.guard[1]],
				CorrBuf: corrs[i],
			}
			if len(s.Erased) == 0 {
				s.Erased = nil
			}
			if len(s.Guard) == 0 {
				s.Guard = nil
			}
			if rs.comps {
				c := &comps[i]
				if budgets[i] != rs.budget {
					b := rs.budget
					c.Init(rs.lo, rs.hi, b[0], b[1], b[2], b[3])
					budgets[i] = b
				}
				c.Lo, c.Hi = rs.lo, rs.hi
				s.Comps = c
			}
			shots = append(shots, s)
		}
		t0 := time.Now()
		out, err := pool.DecodeOn(sub.g, shots)
		if err != nil {
			return 0, err
		}
		total += time.Since(t0)
		for i, c := range out {
			corrs[i] = c[:0]
		}
	}
	return float64(total) / float64(len(r.recs)), nil
}
