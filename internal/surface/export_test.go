package surface

// Test hooks for the external surface_test package.

// ForceGeneric makes the source run every round through the generic
// gate loop — the reference the fused-plan tests compare against.
func ForceGeneric(s *CircuitSource) { s.noFuse = true }

// FusedRound runs one round through the fused plan if the simulator is
// eligible, reporting whether it did (see fusedRound).
func FusedRound(s *CircuitSource) bool { return s.fusedRound() }

// HasPlan reports whether the source compiled a fused round plan.
func HasPlan(s *CircuitSource) bool { return s.plan != nil }

// WithUncheckedSchedule is WithSchedule without the ReaderPairs
// validation, keeping the wrapped code's diagonal classes — the only
// way to build a schedule whose CNOT step reads a qubit twice, which
// the disjointness guard of the fused plan must route to the generic
// loop.
func WithUncheckedSchedule(code Code, name string, plaq, star [][4]int) Code {
	base := code.ExtractionSchedule()
	sch := &Schedule{Plaq: plaq, Star: star, DiagX: base.DiagX, DiagZ: base.DiagZ}
	return &schedOverride{Code: code, name: name, sch: sch}
}
