package surface_test

import (
	"fmt"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// requireSameOutput drives two circuit sources through `rounds` noisy
// rounds and the closing round and fails on the first difference in
// the emitted layers, the accumulated error planes, the failure-
// detector parities, FaultCount or LocationCount.
func requireSameOutput(t *testing.T, a, b *surface.CircuitSource, rounds int) {
	t.Helper()
	nc, lanes := a.Code().Checks(), a.Lanes()
	aX, aZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	bX, bZ := bits.NewVecs(nc, lanes), bits.NewVecs(nc, lanes)
	check := func(r int) {
		t.Helper()
		for c := 0; c < nc; c++ {
			if !aX[c].Equal(bX[c]) || !aZ[c].Equal(bZ[c]) {
				t.Fatalf("round %d: layer mismatch at check %d", r, c)
			}
		}
	}
	for r := 0; r < rounds; r++ {
		a.NextLayers(aX, aZ)
		b.NextLayers(bX, bZ)
		check(r)
	}
	a.CloseLayers(aX, aZ)
	b.CloseLayers(bX, bZ)
	check(rounds)
	ex, ez := a.ErrorPlanes()
	px, pz := b.ErrorPlanes()
	for q := range ex {
		if !ex[q].Equal(px[q]) || !ez[q].Equal(pz[q]) {
			t.Fatalf("error plane mismatch at qubit %d", q)
		}
	}
	w1 := bits.NewVecs(4, lanes)
	w2 := bits.NewVecs(4, lanes)
	a.Windings(w1[0], w1[1], w1[2], w1[3])
	b.Windings(w2[0], w2[1], w2[2], w2[3])
	for i := range w1 {
		if !w1[i].Equal(w2[i]) {
			t.Fatalf("winding plane %d mismatch", i)
		}
	}
	if a.Sim().FaultCount != b.Sim().FaultCount {
		t.Fatalf("FaultCount: %d vs %d", a.Sim().FaultCount, b.Sim().FaultCount)
	}
	if a.Sim().LocationCount != b.Sim().LocationCount {
		t.Fatalf("LocationCount: %d vs %d", a.Sim().LocationCount, b.Sim().LocationCount)
	}
}

// TestFusedRoundBitIdentical pins the fused-plan executor to the
// generic gate loop on every code family: two sources over identical
// aggregate-sampler streams — one forced through the unfused path —
// must emit identical difference layers every round and finish with
// identical error planes, windings, fault counts and location counts.
// Covered shapes include a non-word-multiple lane count (tail-word
// handling), distinct per-location probabilities (carry reset between
// blocks), a hot model and certain preparation faults (p = 1 blocks).
func TestFusedRoundBitIdentical(t *testing.T) {
	distinct := noise.Params{Gate1: 0.002, Gate2: 0.01, Prep: 0.02, Meas: 0.005, Storage: 0.03}
	certain := noise.Params{Gate2: 0.01, Prep: 1, Meas: 0.01, Storage: 0}
	type fusedCase struct {
		name  string
		code  surface.Code
		lanes int
		P     noise.Params
	}
	cases := []fusedCase{
		{"uniform/L=4", toric.Cached(4), 64, noise.Uniform(0.01)},
		{"uniform/L=6/lanes=100", toric.Cached(6), 100, noise.Uniform(0.003)},
		{"distinct-p/L=5/lanes=37", toric.Cached(5), 37, distinct},
		{"hot/L=4", toric.Cached(4), 64, noise.Uniform(0.2)},
		{"certain-prep/L=4", toric.Cached(4), 64, certain},
	}
	for _, code := range []surface.Code{toric.HookParallel(4), surface.Planar(5), surface.Rotated(5)} {
		fam := fmt.Sprintf("%s/d=%d", code.CodeName(), code.Distance())
		cases = append(cases,
			fusedCase{fam + "/uniform", code, 64, noise.Uniform(0.01)},
			fusedCase{fam + "/uniform/lanes=100", code, 100, noise.Uniform(0.003)},
			fusedCase{fam + "/distinct-p/lanes=37", code, 37, distinct},
			fusedCase{fam + "/hot", code, 64, noise.Uniform(0.2)},
			fusedCase{fam + "/certain-prep", code, 64, certain},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, rounds = 11, 12
			fused := surface.NewCircuitSource(tc.code, tc.P, tc.lanes, frame.NewAggregateSampler(seed, 1))
			plain := surface.NewCircuitSource(tc.code, tc.P, tc.lanes, frame.NewAggregateSampler(seed, 1))
			surface.ForceGeneric(plain)
			if !surface.HasPlan(fused) {
				t.Fatal("no fused plan compiled")
			}
			requireSameOutput(t, fused, plain, rounds)
			if fused.Sim().FaultCount == 0 {
				t.Fatal("degenerate case: no faults injected")
			}
		})
	}
}

// TestFusedPlanCompilesForEveryFamily: every shipped schedule has
// qubit-disjoint CNOT steps at d = 3…15, so every family takes the
// fused path.
func TestFusedPlanCompilesForEveryFamily(t *testing.T) {
	for d := 3; d <= 15; d++ {
		codes := []surface.Code{toric.Cached(d), toric.HookParallel(d), surface.Planar(d)}
		if d%2 == 1 {
			codes = append(codes, surface.Rotated(d)) // odd distances only
		}
		for _, code := range codes {
			src := surface.NewCircuitSource(code, noise.Uniform(0.01), 8, frame.NewAggregateSampler(1, 0))
			if !surface.HasPlan(src) {
				t.Fatalf("%s d=%d: no fused plan compiled", code.CodeName(), d)
			}
		}
	}
}

// TestFusedRoundFallbacks pins the eligibility gate: a lockstep sampler
// and an armed trigger harness must decline the fused path, and the
// declined round must replay through the generic loop.
func TestFusedRoundFallbacks(t *testing.T) {
	const l, lanes = 4, 8
	lat := toric.Cached(l)
	P := noise.Uniform(0.01)
	s := surface.NewCircuitSource(lat, P, lanes, frame.NewLockstepSampler(3, lanes))
	if surface.FusedRound(s) {
		t.Fatal("fused path accepted a lockstep sampler")
	}
	s2 := surface.NewCircuitSource(lat, P, lanes, frame.NewAggregateSampler(3, 0))
	s2.Sim().ArmTrigger(0, 5)
	if surface.FusedRound(s2) {
		t.Fatal("fused path accepted an armed trigger harness")
	}
	nc := lat.NumChecks()
	lX := bits.NewVecs(nc, lanes)
	lZ := bits.NewVecs(nc, lanes)
	s2.NextLayers(lX, lZ) // must route through the generic loop and count locations
	if got := s2.Sim().LocationCount; got != surface.LocationsPerRound(lat) {
		t.Fatalf("generic fallback LocationCount = %d, want %d", got, surface.LocationsPerRound(lat))
	}
}

// TestFusedPlanDisjointnessGuard: a schedule whose CNOT step reads one
// data qubit twice cannot run as a fused block (RoundPlan.CNOTStep
// needs qubit-disjoint pairs), so the source must compile no plan and
// emit exactly what the generic loop emits. Plaquette 0 of an L=4 torus
// reads h(0,1) first instead of last, colliding at step 0 with
// plaquette (0,1), which reads the same edge first.
func TestFusedPlanDisjointnessGuard(t *testing.T) {
	const l, lanes, rounds = 4, 64, 12
	lat := toric.Cached(l)
	base := lat.ExtractionSchedule()
	plaq := append([][4]int(nil), base.Plaq...)
	o := plaq[0]
	plaq[0] = [4]int{o[3], o[1], o[2], o[0]}
	if plaq[0][0] != plaq[l][0] {
		t.Fatalf("permuted order %v does not collide with plaquette (0,1) %v at step 0", plaq[0], plaq[l])
	}
	code := surface.WithUncheckedSchedule(lat, "toric-step-conflict", plaq, base.Star)
	P := noise.Uniform(0.02)
	guarded := surface.NewCircuitSource(code, P, lanes, frame.NewAggregateSampler(17, 2))
	if surface.HasPlan(guarded) {
		t.Fatal("compiled a fused plan for a schedule with a step conflict")
	}
	generic := surface.NewCircuitSource(code, P, lanes, frame.NewAggregateSampler(17, 2))
	surface.ForceGeneric(generic)
	requireSameOutput(t, guarded, generic, rounds)
}
