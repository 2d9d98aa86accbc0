package surface_test

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestScheduleReadsEveryEdgeTwice: every data edge of the torus is read
// by exactly its two adjacent checks in each sector, at distinct steps,
// and each step's check→edge map is injective (the schedule is
// conflict-free).
func TestScheduleReadsEveryEdgeTwice(t *testing.T) {
	for _, l := range []int{2, 3, 4, 5} {
		lat := toric.Cached(l)
		sch := lat.ExtractionSchedule()
		for sector, orders := range [][][4]int{sch.Plaq, sch.Star} {
			reads := make([]int, lat.Qubits())
			for step := 0; step < 4; step++ {
				seen := make(map[int]bool)
				for c := 0; c < lat.NumChecks(); c++ {
					e := orders[c][step]
					if seen[e] {
						t.Fatalf("L=%d sector %d step %d: edge %d read twice in one step", l, sector, step, e)
					}
					seen[e] = true
					reads[e]++
				}
			}
			for e, n := range reads {
				if n != 2 {
					t.Fatalf("L=%d sector %d: edge %d read %d times", l, sector, e, n)
				}
			}
		}
		// The diagonal reader pairs must be the two adjacent checks of the
		// edge (the ends of the edge in the sector's decoding graph).
		for e := 0; e < lat.Qubits(); e++ {
			a, b := lat.Graph().Ends(e)
			pr := sch.DiagX[e]
			if (int(pr[0]) != a || int(pr[1]) != b) && (int(pr[0]) != b || int(pr[1]) != a) {
				t.Fatalf("L=%d edge %d: DiagX %v is not the graph ends (%d,%d)", l, e, pr, a, b)
			}
			a, b = lat.DualGraph().Ends(e)
			pr = sch.DiagZ[e]
			if (int(pr[0]) != a || int(pr[1]) != b) && (int(pr[0]) != b || int(pr[1]) != a) {
				t.Fatalf("L=%d edge %d: DiagZ %v is not the dual ends (%d,%d)", l, e, pr, a, b)
			}
		}
	}
}

// TestZeroNoiseExtractionIsSilent: with every fault channel off, the
// extraction circuit reproduces the noiseless syndrome bit for bit —
// all-zero difference layers, every round, closing layer included.
func TestZeroNoiseExtractionIsSilent(t *testing.T) {
	const lanes = 130
	for _, l := range []int{3, 4} {
		lat := toric.Cached(l)
		src := surface.NewCircuitSource(lat, noise.Params{}, lanes, frame.NewAggregateSampler(11, 1))
		layerX := bits.NewVecs(lat.NumChecks(), lanes)
		layerZ := bits.NewVecs(lat.NumChecks(), lanes)
		for r := 0; r < 4; r++ {
			src.NextLayers(layerX, layerZ)
			for c := 0; c < lat.NumChecks(); c++ {
				if layerX[c].Any() || layerZ[c].Any() {
					t.Fatalf("L=%d round %d: noiseless circuit emitted a defect at check %d", l, r, c)
				}
			}
		}
		src.CloseLayers(layerX, layerZ)
		for c := 0; c < lat.NumChecks(); c++ {
			if layerX[c].Any() || layerZ[c].Any() {
				t.Fatalf("L=%d closing layer: noiseless circuit emitted a defect at check %d", l, c)
			}
		}
	}
}

// TestInjectedErrorsReadCorrectSyndromes: with faults off, errors
// injected between rounds must appear in the next round's difference
// layers as exactly the ideal lattice syndrome (and only once — the
// difference of two identical observations cancels afterwards). This is
// the "circuit computes the true check operators" equivalence.
func TestInjectedErrorsReadCorrectSyndromes(t *testing.T) {
	const lanes = 64
	l := 4
	lat := toric.Cached(l)
	nc := lat.NumChecks()
	src := surface.NewCircuitSource(lat, noise.Params{}, lanes, frame.NewAggregateSampler(12, 2))
	layerX := bits.NewVecs(nc, lanes)
	layerZ := bits.NewVecs(nc, lanes)
	src.NextLayers(layerX, layerZ) // settle round 0 (all zero)

	// Different error pattern per lane: lane i gets X on edge i and Z on
	// edge (i+7) mod nq.
	nq := lat.Qubits()
	xerr := make([]bits.Vec, lanes)
	zerr := make([]bits.Vec, lanes)
	for lane := 0; lane < lanes; lane++ {
		xe := lane % nq
		ze := (lane + 7) % nq
		src.Sim().InjectX(xe, lane)
		src.Sim().InjectZ(ze, lane)
		xerr[lane] = bits.NewVec(nq)
		xerr[lane].Flip(xe)
		zerr[lane] = bits.NewVec(nq)
		zerr[lane].Flip(ze)
	}
	src.NextLayers(layerX, layerZ)
	for lane := 0; lane < lanes; lane++ {
		wantX := lat.Syndrome(xerr[lane])
		wantZ := lat.StarSyndrome(zerr[lane])
		gotX, gotZ := laneDefects(layerX, layerZ, lane)
		if !equalInts(gotX, wantX) || !equalInts(gotZ, wantZ) {
			t.Fatalf("lane %d: syndrome X %v (want %v) Z %v (want %v)", lane, gotX, wantX, gotZ, wantZ)
		}
	}
	// The next round re-observes the same syndromes: differences vanish.
	src.NextLayers(layerX, layerZ)
	for c := 0; c < nc; c++ {
		if layerX[c].Any() || layerZ[c].Any() {
			t.Fatalf("check %d: stable error produced a second difference defect", c)
		}
	}
	// The perfect closing layer agrees with the (unchanged) observation.
	src.CloseLayers(layerX, layerZ)
	for c := 0; c < nc; c++ {
		if layerX[c].Any() || layerZ[c].Any() {
			t.Fatalf("check %d: closing layer disagrees with the noiseless observation", c)
		}
	}
}

// laneDefects reads one lane's defect lists out of check-major layers.
func laneDefects(layerX, layerZ []bits.Vec, lane int) (dx, dz []int) {
	for c := range layerX {
		if layerX[c].Get(lane) {
			dx = append(dx, c)
		}
		if layerZ[c].Get(lane) {
			dz = append(dz, c)
		}
	}
	return dx, dz
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLocationsPerRound pins the ArmTrigger coordinate system: the
// per-lane location counter advances by exactly LocationsPerRound each
// round, independent of the noise parameters — 2L² + 12L² on the torus.
func TestLocationsPerRound(t *testing.T) {
	for _, l := range []int{2, 3, 4} {
		lat := toric.Cached(l)
		if got, want := surface.LocationsPerRound(lat), 14*l*l; got != want {
			t.Fatalf("L=%d: LocationsPerRound = %d, want 2L²+12L² = %d", l, got, want)
		}
		for _, P := range []noise.Params{{}, noise.Uniform(0.01)} {
			src := surface.NewCircuitSource(lat, P, 8, frame.NewAggregateSampler(13, 3))
			src.Sim().ArmTrigger(0, -1) // enable per-lane location counting
			nc := lat.NumChecks()
			layerX := bits.NewVecs(nc, 8)
			layerZ := bits.NewVecs(nc, 8)
			src.NextLayers(layerX, layerZ)
			if got := src.Sim().LaneLocationCount(0); got != surface.LocationsPerRound(lat) {
				t.Fatalf("L=%d P=%+v: %d locations per round, want %d", l, P, got, surface.LocationsPerRound(lat))
			}
			src.NextLayers(layerX, layerZ)
			if got := src.Sim().LaneLocationCount(0); got != 2*surface.LocationsPerRound(lat) {
				t.Fatalf("L=%d: %d locations after two rounds", l, got)
			}
		}
	}
}

// TestMeasurementFaultIsVerticalPair: a single measurement flip produces
// the classic vertical defect pair — the same check lit in two
// consecutive difference layers — and nothing else. (The richer fault
// classes are exhausted by the single-fault enumeration in
// fault_test.go.)
func TestMeasurementFaultIsVerticalPair(t *testing.T) {
	const l = 4
	lat := toric.Cached(l)
	nc := lat.NumChecks()
	src := surface.NewCircuitSource(lat, noise.Params{}, 1, frame.NewAggregateSampler(14, 4))
	sim := src.Sim()
	// Trigger an X flip on the plaquette-0 ancilla right at its
	// measurement location in round 1. Location: round offset + storage
	// (2L²) + prep (L²) + CNOTs (4L²) + 0.
	loc := surface.LocationsPerRound(lat) + 2*l*l + 5*l*l
	sim.ArmTrigger(0, loc)
	sim.TriggerFault = func(b *frame.BatchSim, lane int, qubits []int) {
		b.InjectX(qubits[0], lane)
	}
	layerX := bits.NewVecs(nc, 1)
	layerZ := bits.NewVecs(nc, 1)
	rounds := 3
	var layers [][]int
	for r := 0; r < rounds; r++ {
		src.NextLayers(layerX, layerZ)
		dx, dz := laneDefects(layerX, layerZ, 0)
		if len(dz) != 0 {
			t.Fatalf("round %d: measurement fault leaked into the star sector: %v", r, dz)
		}
		layers = append(layers, dx)
	}
	src.CloseLayers(layerX, layerZ)
	dx, _ := laneDefects(layerX, layerZ, 0)
	layers = append(layers, dx)
	want := [][]int{{}, {0}, {0}, {}}
	for r := range layers {
		got := layers[r]
		if len(got) != len(want[r]) || (len(got) == 1 && got[0] != want[r][0]) {
			t.Fatalf("vertical pair mismatch: layers %v, want %v", layers, want)
		}
	}
}
