package spacetime

// Whole-volume decoding for the open-boundary families through the
// public memory entry points, and the feed/volume compatibility guards.

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

func TestCodeMemoryEntryPoints(t *testing.T) {
	for _, code := range []surface.Code{surface.Planar(3), surface.Rotated(3)} {
		r := CodeMemory(code, 4, 0, 0, 256, 3)
		if r.Failures != 0 {
			t.Errorf("%s: %d failures at p=0", code.CodeName(), r.Failures)
		}
		rc := CodeCircuitMemory(code, 4, noise.Params{}, 256, 3)
		if rc.Failures != 0 {
			t.Errorf("%s circuit: %d failures at P=0", code.CodeName(), rc.Failures)
		}
	}
	a := CodeCircuitMemory(surface.Rotated(3), 3, noise.Uniform(0.006), 2048, 9)
	b := CodeCircuitMemory(surface.Rotated(3), 3, noise.Uniform(0.006), 2048, 9)
	if a != b {
		t.Errorf("rotated circuit memory not deterministic: %+v vs %+v", a, b)
	}
	if a.Failures == 0 {
		t.Errorf("rotated d=3 at eps=0.006: no failures in %d samples — detector wiring suspect", a.Samples)
	}
}

// TestVolumeFeedGuards pins the cross-wiring panics: a code volume
// rejects feeds of another family or distance and drained feeds.
func TestVolumeFeedGuards(t *testing.T) {
	planarVol := CachedCodeVolume(surface.Planar(3), 3, 0.01, 0.01)
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	expectPanic("family mismatch", func() {
		src := surface.NewLayerSource(surface.Rotated(3), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("toric feed into open volume", func() {
		src := surface.NewLayerSource(toric.Cached(3), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("distance mismatch", func() {
		src := surface.NewLayerSource(surface.Planar(5), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
		planarVol.BatchMemoryFrom(src, toric.DecoderUnionFind)
	})
	expectPanic("drained feed", func() {
		src := surface.NewCircuitSource(surface.Planar(3), noise.Params{}, 8, frame.NewAggregateSampler(1, 0))
		src.NextLayers(bits.NewVecs(6, 8), bits.NewVecs(6, 8))
		CachedCodeCircuitVolumeFor(surface.Planar(3), 3, noise.Uniform(0.01)).BatchCircuitErasedFrom(src, DecodeOptions{})
	})
	expectPanic("exact matching on an open code", func() {
		planarVol.Decode([]int{0, 1}, toric.DecoderExact, false)
	})
	// The toric code-volume accepts the toric feed.
	vol := CachedCodeVolume(toric.Cached(3), 3, 0.01, 0.01)
	src := surface.NewLayerSource(toric.Cached(3), 0.01, 0.01, 8, frame.NewAggregateSampler(1, 0))
	vol.BatchMemoryFrom(src, toric.DecoderUnionFind)
}

// TestCodeErasedMemoryAwareBeatsBlind: the phenomenological erasure
// experiment runs on open-boundary volumes (it used to build a toric
// source of the code's distance and overrun the planar planes). With
// every error located (p = q = 0, pe = qe = 0.08), erasure-aware
// decoding must fail at most 1% of shots and fewer than blind decoding.
func TestCodeErasedMemoryAwareBeatsBlind(t *testing.T) {
	const samples = 2560
	for _, code := range []surface.Code{surface.Planar(5), surface.Rotated(5)} {
		v := CachedCodeVolume(code, 5, 0, 0)
		failures := func(aware bool) int {
			_, _, fa := frame.CountSectorFailures(samples, 41, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
				return v.BatchMemoryErased(0, 0, 0.08, 0.08, lanes, smp, aware)
			})
			return fa
		}
		aware, blind := failures(true), failures(false)
		if aware > samples/100 || aware >= blind {
			t.Errorf("%s: aware %d vs blind %d failures of %d shots", code.CodeName(), aware, blind, samples)
		}
	}
}
