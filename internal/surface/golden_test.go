package surface_test

// Golden-output pins for the layer sources: each case drives a
// fixed-seed source through its noisy rounds and the closing round and
// hashes everything it emits — difference layers, erasure and lost-
// measurement planes, the closing layer, the logical-failure parities,
// the accumulated error planes and, for circuit sources, the frame
// simulator's FaultCount and LocationCount. The constants were recorded
// from the toric-specific sources the code-generic ones replaced, so a
// change that moves any sampler draw, gate order or fused-plan block
// shows up here as a hash mismatch.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// goldenFeed is the part of the layer-feed contract the pins read.
type goldenFeed interface {
	NextLayers(layerX, layerZ []bits.Vec)
	CloseLayers(layerX, layerZ []bits.Vec)
	Windings(pX1, pX2, pZ1, pZ2 bits.Vec)
	ErrorPlanes() (x, z []bits.Vec)
}

// phenomSource is the toric phenomenological source under pin.
type phenomSource interface {
	goldenFeed
	NextLayersErased(pe, qe float64, layerX, layerZ, eraH, lostX, lostZ []bits.Vec)
}

func newToricPhenom(l int, p, q float64, lanes int, smp frame.Sampler) phenomSource {
	return surface.NewLayerSource(toric.Cached(l), p, q, lanes, smp)
}

type planeHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newPlaneHash() *planeHash { return &planeHash{h: fnv.New64a()} }

func (ph *planeHash) word(w uint64) {
	binary.LittleEndian.PutUint64(ph.buf[:], w)
	ph.h.Write(ph.buf[:])
}

func (ph *planeHash) vecs(vs ...[]bits.Vec) {
	for _, v := range vs {
		for _, p := range v {
			for i := 0; i < p.Words(); i++ {
				ph.word(p.Word(i))
			}
		}
	}
}

// finish hashes the closing layer, the failure-detector parities and
// the accumulated error planes of a drained feed.
func (ph *planeHash) finish(src goldenFeed, nc, lanes int) uint64 {
	lx, lz := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	src.CloseLayers(lx, lz)
	w := bits.NewVecs(4, lanes)
	src.Windings(w[0], w[1], w[2], w[3])
	ex, ez := src.ErrorPlanes()
	ph.vecs(lx, lz, w, ex, ez)
	return ph.h.Sum64()
}

// hashPlain drains a feed through plain NextLayers rounds.
func hashPlain(src goldenFeed, nc, lanes, rounds int) *planeHash {
	ph := newPlaneHash()
	lx, lz := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayers(lx, lz)
		ph.vecs(lx, lz)
	}
	return ph
}

func checkGolden(t *testing.T, name string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: output hash %#016x, want %#016x", name, got, want)
	}
}

func TestGoldenToricPhenomenological(t *testing.T) {
	const l, lanes, rounds = 4, 130, 6
	nq, nc := toric.Cached(l).Qubits(), toric.Cached(l).NumChecks()

	src := newToricPhenom(l, 0.02, 0.01, lanes, frame.NewAggregateSampler(501, 0))
	checkGolden(t, "plain", hashPlain(src, nc, lanes, rounds).finish(src, nc, lanes), 0x49876c0f8190e8ee)

	src = newToricPhenom(l, 0.02, 0.01, lanes, frame.NewAggregateSampler(502, 0))
	ph := newPlaneHash()
	lx, lz := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	eraH := bits.NewVecs(nq, lanes)
	lostX, lostZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	for r := 0; r < rounds; r++ {
		src.NextLayersErased(0.05, 0.05, lx, lz, eraH, lostX, lostZ)
		ph.vecs(lx, lz, eraH, lostX, lostZ)
	}
	checkGolden(t, "erased", ph.finish(src, nc, lanes), 0x9a167b77d5964da9)
}

// circuitSource is the circuit-level feed under pin.
type circuitSource interface {
	goldenFeed
	Sim() *frame.BatchSim
}

func hashCircuitPlain(src circuitSource, nc, lanes, rounds int) uint64 {
	ph := hashPlain(src, nc, lanes, rounds)
	ph.word(uint64(src.Sim().FaultCount))
	ph.word(uint64(src.Sim().LocationCount))
	return ph.finish(src, nc, lanes)
}

func TestGoldenToricCircuit(t *testing.T) {
	const lanes, rounds = 100, 8
	biased := noise.Uniform(0.01)
	biased.Bias = 10
	leaky := noise.Uniform(0.004)
	leaky.Leak = 0.003
	cases := []struct {
		l          int
		plain, bia uint64
		erased     uint64
	}{
		{4, 0x6ea21160bb687bcd, 0x1c80c7d07b3b78f8, 0xfb1dad4e42c2289d},
		{5, 0x3f3f7123e30b5668, 0x064f969daa9d456d, 0x253735539ab162c1},
	}
	for _, tc := range cases {
		lat := toric.Cached(tc.l)
		nq, nc := lat.Qubits(), lat.NumChecks()
		src := spacetime.NewCircuitLayerSource(tc.l, noise.Uniform(0.006), lanes, frame.NewAggregateSampler(601, uint64(tc.l)))
		checkGolden(t, "plain", hashCircuitPlain(src, nc, lanes, rounds), tc.plain)

		src = spacetime.NewCircuitLayerSource(tc.l, biased, lanes, frame.NewAggregateSampler(602, uint64(tc.l)))
		checkGolden(t, "biased", hashCircuitPlain(src, nc, lanes, rounds), tc.bia)

		es := surface.NewCircuitSourceErased(lat, leaky, lanes, frame.NewAggregateSampler(603, uint64(tc.l)))
		ph := newPlaneHash()
		lx, lz := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		eraH := bits.NewVecs(nq, lanes)
		lostX, lostZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
		for r := 0; r < rounds; r++ {
			es.NextLayersErased(lx, lz, eraH, lostX, lostZ)
			ph.vecs(lx, lz, eraH, lostX, lostZ)
		}
		ph.word(uint64(es.Sim().FaultCount))
		ph.word(uint64(es.Sim().LocationCount))
		checkGolden(t, "leaky-erased", ph.finish(es, nc, lanes), tc.erased)
	}
}

// TestGoldenToricCircuitBenchShape pins the streaming benchmark's source
// shape: L=16 at ε=0.003, 64 lanes, 64 rounds.
func TestGoldenToricCircuitBenchShape(t *testing.T) {
	const l, lanes, rounds = 16, 64, 64
	src := spacetime.NewCircuitLayerSource(l, noise.Uniform(0.003), lanes, frame.NewAggregateSampler(701, 3))
	checkGolden(t, "L=16", hashCircuitPlain(src, l*l, lanes, rounds), 0x55311f3fdc7a8957)
}

func TestGoldenOtherCodesCircuit(t *testing.T) {
	const lanes, rounds = 100, 8
	cases := []struct {
		code surface.Code
		want uint64
	}{
		{toric.HookParallel(4), 0x243a1a9769fbe48d},
		{surface.Planar(5), 0xfe32870dffb7c790},
		{surface.Rotated(5), 0x7ec123a92c5acaed},
	}
	for i, tc := range cases {
		src := surface.NewCircuitSource(tc.code, noise.Uniform(0.006), lanes, frame.NewAggregateSampler(801, uint64(i)))
		checkGolden(t, tc.code.CodeName(), hashCircuitPlain(src, tc.code.Checks(), lanes, rounds), tc.want)
	}
}

// TestGoldenEndToEnd pins the failure counts of the streaming and the
// whole-volume circuit-level Monte Carlo at one small point per code.
func TestGoldenEndToEnd(t *testing.T) {
	leaky := noise.Uniform(0.006)
	leaky.Leak = 0.002
	cases := []struct {
		code            surface.Code
		stream, aware   [3]int // FailX, FailZ, Failures
		correlatedBlind [3]int
	}{
		{toric.Cached(4), [3]int{191, 181, 312}, [3]int{89, 70, 142}, [3]int{101, 76, 158}},
		{surface.Planar(3), [3]int{104, 95, 176}, [3]int{55, 33, 85}, [3]int{58, 37, 89}},
	}
	for _, tc := range cases {
		name := tc.code.CodeName()
		sr, err := stream.CodeCircuitMemory(tc.code, 12, noise.Uniform(0.008), 0, 0, 640, 901)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{sr.FailX, sr.FailZ, sr.Failures}; got != tc.stream {
			t.Errorf("%s stream: failures %v, want %v", name, got, tc.stream)
		}
		for _, arm := range []struct {
			opts spacetime.DecodeOptions
			want [3]int
		}{
			{spacetime.DecodeOptions{ErasureAware: true}, tc.aware},
			{spacetime.DecodeOptions{Correlated: true}, tc.correlatedBlind},
		} {
			r, err := spacetime.CodeCircuitMemoryOpts(tc.code, 6, leaky, 640, 902, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := [3]int{r.FailX, r.FailZ, r.Failures}; got != arm.want {
				t.Errorf("%s volume %+v: failures %v, want %v", name, arm.opts, got, arm.want)
			}
		}
	}
}
