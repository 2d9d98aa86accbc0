package surface

import (
	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// LayerSource samples a phenomenological noisy-extraction history round
// by round for any Code: fresh X and Z data errors at rate p per qubit
// per round, check measurements flipped with probability q, and the
// consecutive-round syndrome differences emitted as check-major layer
// planes. Draw order per round: X qubit planes, Z qubit planes, primal
// measurement masks, dual measurement masks — all in index order, so
// any experiment built on a source is a pure function of the sampler
// stream. The whole-volume batch decode and the streaming sliding-
// window decoder drain the same source, which is what makes them
// statistically identical by construction.
type LayerSource struct {
	code   Code
	p, q   float64
	lanes  int
	smp    frame.Sampler
	rounds int

	active, tmp  bits.Vec
	intact, coin bits.Vec   // erasure-path scratch, built on first use
	cumX, cumZ   []bits.Vec // qubit-major accumulated error planes
	diff         *SyndromeDiff
}

// NewLayerSource returns a phenomenological source over the code for
// `lanes` parallel shots drawing from smp.
func NewLayerSource(code Code, p, q float64, lanes int, smp frame.Sampler) *LayerSource {
	s := &LayerSource{
		code: code, p: p, q: q, lanes: lanes, smp: smp,
		active: bits.NewVec(lanes),
		tmp:    bits.NewVec(lanes),
		cumX:   bits.NewVecs(code.Qubits(), lanes),
		cumZ:   bits.NewVecs(code.Qubits(), lanes),
		diff:   NewSyndromeDiff(code.Checks(), lanes),
	}
	s.active.SetAll()
	return s
}

// Code returns the code the source extracts on.
func (s *LayerSource) Code() Code { return s.code }

// Lanes returns the batch width.
func (s *LayerSource) Lanes() int { return s.lanes }

// Rounds returns how many noisy rounds have been emitted.
func (s *LayerSource) Rounds() int { return s.rounds }

// NextLayers advances one noisy extraction round and writes its
// difference-syndrome layers into layerX and layerZ (check-major,
// Checks() vectors each).
func (s *LayerSource) NextLayers(layerX, layerZ []bits.Vec) {
	nq, nc := s.code.Qubits(), s.code.Checks()
	for e := 0; e < nq; e++ {
		s.smp.Bernoulli(s.p, s.active, s.tmp)
		s.cumX[e].Xor(s.tmp)
	}
	for e := 0; e < nq; e++ {
		s.smp.Bernoulli(s.p, s.active, s.tmp)
		s.cumZ[e].Xor(s.tmp)
	}
	curX := s.diff.CurX()
	s.code.CheckPlanes(false, s.cumX, curX)
	for c := 0; c < nc; c++ {
		s.smp.Bernoulli(s.q, s.active, s.tmp)
		curX[c].Xor(s.tmp)
	}
	curZ := s.diff.CurZ()
	s.code.CheckPlanes(true, s.cumZ, curZ)
	for c := 0; c < nc; c++ {
		s.smp.Bernoulli(s.q, s.active, s.tmp)
		curZ[c].Xor(s.tmp)
	}
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// NextLayersErased is NextLayers with two erasure channels: data
// leakage (each qubit, each round, leaks with probability pe and
// depolarizes — it flips with probability ½ in each sector — at a known
// location) and lost measurements (each check readout, each round, is
// lost with probability qe and replaced by a fair coin). It also fills
// the round's data-leakage planes (eraH: one vector per qubit) and
// lost-measurement masks per sector (lostX, lostZ: one vector per
// check). Draw order: leakage planes, X intact flips, X leaked coins,
// Z intact flips, Z leaked coins, primal measurement masks, lost
// primal masks, lost primal coins, then the dual sector's three — all
// plane-at-a-time in index order.
func (s *LayerSource) NextLayersErased(pe, qe float64, layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq := s.code.Qubits()
	if s.intact.Len() == 0 {
		s.intact = bits.NewVec(s.lanes)
		s.coin = bits.NewVec(s.lanes)
	}
	for e := 0; e < nq; e++ {
		s.smp.Bernoulli(pe, s.active, eraH[e])
	}
	for _, cum := range [2][]bits.Vec{s.cumX, s.cumZ} {
		for e := 0; e < nq; e++ {
			s.intact.CopyFrom(s.active)
			s.intact.AndNot(eraH[e])
			s.smp.Bernoulli(s.p, s.intact, s.tmp)
			cum[e].Xor(s.tmp)
		}
		for e := 0; e < nq; e++ {
			s.smp.Bernoulli(0.5, eraH[e], s.tmp)
			cum[e].Xor(s.tmp)
		}
	}
	s.readErased(false, s.cumX, s.diff.CurX(), qe, lostX)
	s.readErased(true, s.cumZ, s.diff.CurZ(), qe, lostZ)
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// readErased observes one sector's syndromes with measurement flips at
// q and lost readouts at qe.
func (s *LayerSource) readErased(dual bool, cum, cur []bits.Vec, qe float64, lost []bits.Vec) {
	nc := s.code.Checks()
	s.code.CheckPlanes(dual, cum, cur)
	for c := 0; c < nc; c++ {
		s.smp.Bernoulli(s.q, s.active, s.tmp)
		cur[c].Xor(s.tmp)
	}
	for c := 0; c < nc; c++ {
		s.smp.Bernoulli(qe, s.active, lost[c])
	}
	for c := 0; c < nc; c++ {
		// A lost measurement reads as a fair coin, whatever the truth.
		s.smp.Coin(lost[c], s.coin)
		cur[c].AndNot(lost[c])
		cur[c].Or(s.coin)
	}
}

// CloseLayers writes the closing perfect round's difference layers: the
// true syndromes of the accumulated errors, no fresh faults, no
// measurement noise.
func (s *LayerSource) CloseLayers(layerX, layerZ []bits.Vec) {
	s.code.CheckPlanes(false, s.cumX, s.diff.CurX())
	s.code.CheckPlanes(true, s.cumZ, s.diff.CurZ())
	s.diff.Emit(layerX, layerZ)
}

// Windings accumulates the logical-failure-detector parities of the
// accumulated error chains (the layer-feed homology contract; open
// codes leave the second parity of each sector untouched).
func (s *LayerSource) Windings(pX1, pX2, pZ1, pZ2 bits.Vec) {
	s.code.LogicalPlanes(false, s.cumX, pX1, pX2)
	s.code.LogicalPlanes(true, s.cumZ, pZ1, pZ2)
}

// ErrorPlanes returns the live accumulated error planes of the two
// sectors (qubit-major). Read-only views for validation harnesses.
func (s *LayerSource) ErrorPlanes() (x, z []bits.Vec) { return s.cumX, s.cumZ }

// CircuitSource runs circuit-level syndrome extraction for any Code on
// the batch frame engine: one ancilla per check, prepared, coupled to
// its data qubits by CNOTs in the code's schedule (idle −1 steps
// skipped — boundary checks of open codes have weight < 4), and
// measured, with stochastic faults at every circuit location
// (preparation, CNOT, measurement, idle storage) — the error model
// behind realistic threshold estimates (Steane quant-ph/9809054;
// Gottesman arXiv:2210.15844). Beyond the phenomenological model:
//
//   - A CNOT fault can damage a data qubit *between* its two readers'
//     CNOTs, so one check sees the error this round and the other only
//     next round — the diagonal space-time defect pair of the
//     schedule's DiagX/DiagZ reader tables.
//   - A fault on the ancilla mid-chain propagates through the remaining
//     CNOTs onto several data qubits at once ("hook" errors).
//   - Preparation and measurement faults reproduce the phenomenological
//     measurement-flip channel exactly (a vertical defect pair).
//
// Qubit layout on the simulator: data qubits 0…Qubits()−1, primal-check
// ancillas Qubits()+c, dual-check ancillas Qubits()+Checks()+c.
type CircuitSource struct {
	code   Code
	sch    *Schedule
	sim    *frame.BatchSim
	lanes  int
	rounds int
	diff   *SyndromeDiff

	// plan is the schedule's compiled round (nil when some CNOT step is
	// not qubit-disjoint); NextLayers executes it fused when the
	// simulator is eligible and falls back to the generic gate loop
	// otherwise — both paths are bit-identical.
	plan    *frame.RoundPlan
	measBuf []bits.Vec // reused curX‖curZ slot table for the fused round
	noFuse  bool       // test hook (export_test.go): force the generic loop
}

// NewCircuitSource returns a circuit-level source over the code for
// `lanes` parallel shots under the per-location noise model P, drawing
// from smp. Plain sources do not harvest leakage: P.Leak > 0 panics
// (never a silent zeroing) — construct with NewCircuitSourceErased and
// drain with NextLayersErased instead.
func NewCircuitSource(code Code, P noise.Params, lanes int, smp frame.Sampler) *CircuitSource {
	if P.Leak != 0 {
		panic("surface: P.Leak > 0 needs the erasure-harvesting source (NewCircuitSourceErased + NextLayersErased)")
	}
	return NewCircuitSourceErased(code, P, lanes, smp)
}

// NewCircuitSourceErased returns a circuit-level source that models
// leakage: every gate carries its P.Leak channel, a leaked data qubit
// is swapped for a fresh (randomized) one at the start of the next
// round, and NextLayersErased reports every leak as a located fault.
func NewCircuitSourceErased(code Code, P noise.Params, lanes int, smp frame.Sampler) *CircuitSource {
	nc := code.Checks()
	sch := code.ExtractionSchedule()
	return &CircuitSource{
		code:  code,
		sch:   sch,
		sim:   frame.NewBatch(code.Qubits()+2*nc, lanes, P, smp),
		lanes: lanes,
		diff:  NewSyndromeDiff(nc, lanes),
		plan:  sch.roundPlan(code.Qubits()),
	}
}

// roundPlan returns the schedule's fused-round program, compiled on
// first use: the exact location sequence of the generic loop (storage
// over the data qubits, then per sector prep / four CNOT steps with
// idle slots skipped in check order / measurement), primal
// measurements in slots 0…nc−1 and dual ones in nc…2nc−1. It is nil
// when some CNOT step touches a data qubit twice: frame.RoundPlan
// propagates a step's pairs as one block, which matches the generic
// loop only for qubit-disjoint steps.
func (sch *Schedule) roundPlan(nq int) *frame.RoundPlan {
	sch.planOnce.Do(func() {
		nc := len(sch.Plaq)
		seq := func(from, n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				s[i] = int32(from + i)
			}
			return s
		}
		ancP, ancS := seq(nq, nc), seq(nq+nc, nc)
		pl := frame.NewRoundPlan()
		pl.Storage(seq(0, nq))
		pl.PrepZ(ancP)
		if !cnotSteps(pl, sch.Plaq, ancP, nq, false) {
			return
		}
		pl.MeasZ(ancP, seq(0, nc))
		pl.PrepX(ancS)
		if !cnotSteps(pl, sch.Star, ancS, nq, true) {
			return
		}
		pl.MeasX(ancS, seq(nc, nc))
		sch.plan = pl
	})
	return sch.plan
}

// cnotSteps appends one sector's four CNOT steps to the plan (data
// controls ancillas in the primal sector, ancillas control data in the
// dual), or reports false if a step reads some data qubit twice.
func cnotSteps(pl *frame.RoundPlan, orders [][4]int, anc []int32, nq int, ancCtl bool) bool {
	seen := make([]int, nq) // last step (1-based) that read each qubit
	var data, ancs []int32
	for k := 0; k < 4; k++ {
		data, ancs = data[:0], ancs[:0]
		for c, ord := range orders {
			q := ord[k]
			if q < 0 {
				continue
			}
			if seen[q] == k+1 {
				return false
			}
			seen[q] = k + 1
			data = append(data, int32(q))
			ancs = append(ancs, anc[c])
		}
		if ancCtl {
			pl.CNOTStep(ancs, data)
		} else {
			pl.CNOTStep(data, ancs)
		}
	}
	return true
}

// Code returns the code the source extracts on.
func (s *CircuitSource) Code() Code { return s.code }

// Lanes returns the batch width.
func (s *CircuitSource) Lanes() int { return s.lanes }

// Rounds returns how many noisy rounds have been emitted.
func (s *CircuitSource) Rounds() int { return s.rounds }

// Sim exposes the underlying batch simulator for fault-injection
// harnesses (ArmTrigger single-fault enumeration, InjectX/InjectZ).
func (s *CircuitSource) Sim() *frame.BatchSim { return s.sim }

func (s *CircuitSource) ancP(c int) int { return s.code.Qubits() + c }
func (s *CircuitSource) ancS(c int) int { return s.code.Qubits() + s.code.Checks() + c }

// NextLayers runs one full extraction round — idle storage on the data
// qubits, then the primal sector (PrepZ, four CNOT steps with data as
// control, MeasZ), then the dual sector (PrepX, four CNOT steps with
// the ancilla as control, MeasX) — and writes the round's difference-
// syndrome layers into layerX and layerZ. Every gate carries its
// noise.Params fault channel, so any experiment built on a source is a
// pure function of the sampler stream.
func (s *CircuitSource) NextLayers(layerX, layerZ []bits.Vec) {
	if s.sim.P.Leak > 0 {
		panic("surface: NextLayers with P.Leak > 0 — drain an erasure source with NextLayersErased")
	}
	if s.plan == nil || s.noFuse || !s.fusedRound() {
		s.genericRound()
	}
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// fusedRound executes one extraction round through the compiled plan.
// It reports false (without consuming any randomness) when the
// simulator declines the fused path — a lockstep sampler, an armed
// trigger harness, leakage or bias — so NextLayers replays the
// identical location sequence through the generic gate loop.
func (s *CircuitSource) fusedRound() bool {
	s.measBuf = append(append(s.measBuf[:0], s.diff.CurX()...), s.diff.CurZ()...)
	return s.sim.RunRound(s.plan, s.measBuf)
}

// genericRound executes one extraction round through the per-gate batch
// API (bit-identical to the fused plan on the same sampler state — see
// frame.RunRound). The storage step runs unconditionally so the
// location numbering the fault-injection harnesses script against does
// not depend on whether P.Storage is zero.
func (s *CircuitSource) genericRound() {
	nq, nc := s.code.Qubits(), s.code.Checks()
	for e := 0; e < nq; e++ {
		s.sim.Storage(e)
	}
	curX := s.diff.CurX()
	for c := 0; c < nc; c++ {
		s.sim.PrepZ(s.ancP(c))
	}
	for step := 0; step < 4; step++ {
		for c := 0; c < nc; c++ {
			if q := s.sch.Plaq[c][step]; q >= 0 {
				s.sim.CNOT(q, s.ancP(c))
			}
		}
	}
	for c := 0; c < nc; c++ {
		s.sim.MeasZInto(s.ancP(c), curX[c])
	}
	curZ := s.diff.CurZ()
	for c := 0; c < nc; c++ {
		s.sim.PrepX(s.ancS(c))
	}
	for step := 0; step < 4; step++ {
		for c := 0; c < nc; c++ {
			if q := s.sch.Star[c][step]; q >= 0 {
				s.sim.CNOT(s.ancS(c), q)
			}
		}
	}
	for c := 0; c < nc; c++ {
		s.sim.MeasXInto(s.ancS(c), curZ[c])
	}
}

// NextLayersErased is NextLayers for a leakage-modeling source: it runs
// the same extraction round (generic path — the fused plan declines
// leakage) and additionally harvests every leak as a located fault.
//
// Draw order per round, fixed so whole-volume and streaming drains of
// two equally-seeded sources stay bit-identical: (1) per data qubit in
// index order, the still-leaked lanes are recorded into eraH[e] and the
// qubit is replaced by a fresh randomized one (ReplaceLeaked — two Coin
// draws on non-empty masks only); (2) the generic round body; (3) no
// further draws — round-end bookkeeping only reads planes.
//
// On return, eraH[e] (qubit-major, Qubits() planes) marks the lanes
// whose data qubit e is erased this layer (leaked at the start of the
// round — the replacement Pauli's syndrome lands here — or leaked
// mid-round, where the two readers may disagree), lostX[c]/lostZ[c]
// (check-major) mark the lanes whose primal/dual ancilla was leaked at
// its measurement (the outcome was a coin — a located vertical fault).
// The caller mirrors eraH onto the diagonal edge class when the
// decoding graph carries one.
func (s *CircuitSource) NextLayersErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq, nc := s.code.Qubits(), s.code.Checks()
	lk := s.sim.PlanesLeak(nq + 2*nc)
	for e := 0; e < nq; e++ {
		eraH[e].CopyFrom(lk[e])
		s.sim.ReplaceLeaked(e, eraH[e])
	}
	s.genericRound()
	for e := 0; e < nq; e++ {
		eraH[e].Or(lk[e])
	}
	for c := 0; c < nc; c++ {
		lostX[c].CopyFrom(lk[s.ancP(c)])
		lostZ[c].CopyFrom(lk[s.ancS(c)])
	}
	s.diff.Emit(layerX, layerZ)
	s.rounds++
}

// CloseLayers writes the closing perfect round's difference layers: the
// true syndromes of the accumulated data-qubit errors, computed
// directly from the simulator's frame planes — no circuit, no faults.
func (s *CircuitSource) CloseLayers(layerX, layerZ []bits.Vec) {
	nq := s.code.Qubits()
	s.code.CheckPlanes(false, s.sim.PlanesX(nq), s.diff.CurX())
	s.code.CheckPlanes(true, s.sim.PlanesZ(nq), s.diff.CurZ())
	s.diff.Emit(layerX, layerZ)
}

// Windings accumulates the logical-failure-detector parities of the
// accumulated data-error chains (residual ancilla frames are
// irrelevant — ancillas are re-prepared every round).
func (s *CircuitSource) Windings(pX1, pX2, pZ1, pZ2 bits.Vec) {
	nq := s.code.Qubits()
	s.code.LogicalPlanes(false, s.sim.PlanesX(nq), pX1, pX2)
	s.code.LogicalPlanes(true, s.sim.PlanesZ(nq), pZ1, pZ2)
}

// ErrorPlanes returns the live accumulated data-error planes of the two
// sectors (qubit-major). Read-only views for validation harnesses.
func (s *CircuitSource) ErrorPlanes() (x, z []bits.Vec) {
	nq := s.code.Qubits()
	return s.sim.PlanesX(nq), s.sim.PlanesZ(nq)
}

// LocationsPerRound returns the number of fault locations one
// extraction round of the code executes (the ArmTrigger coordinate
// system of the single-fault enumeration): one storage step per data
// qubit plus, per check of either sector, prep + one CNOT per support
// qubit + meas. For the torus this is the familiar 2L² + 12L².
func LocationsPerRound(code Code) int {
	sch := code.ExtractionSchedule()
	n := code.Qubits()
	for _, orders := range [2][][4]int{sch.Plaq, sch.Star} {
		for _, ord := range orders {
			n += 2
			for _, q := range ord {
				if q >= 0 {
					n++
				}
			}
		}
	}
	return n
}
