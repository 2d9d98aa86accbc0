package main

import (
	"cmp"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"ftqc/internal/bits"
	"ftqc/internal/server"
	"ftqc/internal/spacetime"
	"ftqc/internal/surface"
)

// heapProbe tracks the peak of runtime.MemStats.HeapInuse (live plus
// not-yet-swept objects plus span slack) through runtime/metrics, which
// reads it without stopping the world.
type heapProbe struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapProbe() *heapProbe {
	return &heapProbe{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapProbe) sample() {
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// mallocs returns the exact cumulative heap allocation count.
// ReadMemStats stops the world, so only traced units call it.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantiles splits the samples of consecutive units (unit i's end
// at index ends[i] of xs) into blocks of at least minBlock samples, takes each
// block's p50 and p90, and returns their medians over the blocks: a
// burst of machine noise that slows a few units moves one block, not
// the figure. A short trailing block joins the one before it.
func blockQuantiles(xs []float64, ends []int, minBlock int) (p50, p90 float64, blocks int) {
	var b50, b90 []float64
	add := func(block []float64) {
		block = slices.Clone(block)
		b50 = append(b50, quantile(block, 0.5))
		b90 = append(b90, quantile(block, 0.9))
	}
	lo := 0
	for _, end := range ends {
		if end-lo >= minBlock && len(xs)-end >= minBlock {
			add(xs[lo:end])
			lo = end
		}
	}
	add(xs[lo:])
	return median(b50), median(b90), len(b50)
}

// minReactions is the fewest reaction samples a run reports quantiles
// over, and the block size of blockQuantiles: p90 then has ten samples
// beyond it.
const minReactions = 100

// setReactions reports the reaction quantiles of the sliding Pushes.
func setReactions(r *run, reactions []float64, ends []int) {
	p50, p90, blocks := blockQuantiles(reactions, ends, minReactions)
	r.set("reaction_p50_ms", p50)
	r.set("reaction_p90_ms", p90)
	r.note("%d sliding Pushes timed, in %d blocks of >=%d", len(reactions), blocks, minReactions)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// logicalFailures counts shots whose committed frames leave a logical
// error in either sector: the source's winding parities against the
// code's logical parity of the correction.
func logicalFailures(code surface.Code, w windings, fx, fz []bits.Vec) int {
	n := 0
	for lane := range fx {
		x1, x2 := code.LogicalParity(false, fx[lane])
		z1, z2 := code.LogicalParity(true, fz[lane])
		if w.x1.Get(lane) != x1 || w.x2.Get(lane) != x2 || w.z1.Get(lane) != z1 || w.z2.Get(lane) != z2 {
			n++
		}
	}
	return n
}

// windings holds a source's per-lane homology parities (LayerFeed.Windings).
type windings struct{ x1, x2, z1, z2 bits.Vec }

func newWindings(lanes int) windings {
	v := bits.NewVecs(4, lanes)
	return windings{v[0], v[1], v[2], v[3]}
}

// read replaces the parities with src's (Windings accumulates).
func (w windings) read(src spacetime.LayerFeed) {
	for _, v := range [4]bits.Vec{w.x1, w.x2, w.z1, w.z2} {
		v.Clear()
	}
	src.Windings(w.x1, w.x2, w.z1, w.z2)
}

func framesEqual(ax, az, bx, bz []bits.Vec) bool {
	if len(ax) != len(bx) || len(az) != len(bz) {
		return false
	}
	for i := range ax {
		if !ax[i].Equal(bx[i]) || !az[i].Equal(bz[i]) {
			return false
		}
	}
	return true
}

func cloneVecs(vs []bits.Vec) []bits.Vec {
	out := make([]bits.Vec, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// mergedLatency merges sessions' power-of-two commit-latency buckets,
// each treated as a point mass at its upper bound, and returns the
// q-quantiles in ms.
func mergedLatency(snaps []server.HistSnapshot, qs ...float64) []float64 {
	var all []server.HistBucket
	total := uint64(0)
	for _, s := range snaps {
		all = append(all, s.Buckets...)
		total += s.Count
	}
	slices.SortFunc(all, func(a, b server.HistBucket) int { return cmp.Compare(a.UpTo, b.UpTo) })
	out := make([]float64, len(qs))
	for i, q := range qs {
		target := uint64(math.Ceil(q * float64(total)))
		cum := uint64(0)
		for _, b := range all {
			cum += b.Count
			if cum >= target {
				out[i] = ms(b.UpTo)
				break
			}
		}
	}
	return out
}
