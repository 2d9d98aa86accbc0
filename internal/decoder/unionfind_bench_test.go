package decoder

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkUnionFindWindow times the union-find kernel on the shape the
// streaming decoder feeds it at the circuit-level operating point: an
// L=16, W=32 open-boundary window with circuit weights (wh, wv, wd) =
// (2, 2, 3), ~5% of its detectors lit by random edge faults, decoded
// through DecodeGuarded with a guard set and cluster extraction into the
// commit band. One op is one decode; ns/decode, sweeps/decode and the
// shots' mean defect count are reported.
//
// The guard set of each shot is up to 64 nodes its unguarded decode
// leaves untouched with no support on any incident edge, so the guarded
// decodes run to completion (a retained forest far from fresh defects)
// and time the whole grow–peel–extract path.
func BenchmarkUnionFindWindow(b *testing.B) {
	const l, w, commit = 16, 32, 16
	g := windowGraph(l, w, true, func(class int) int32 { return []int32{2, 2, 3}[class] })
	nc := l * l
	rng := rand.New(rand.NewPCG(1601, 1602))
	uf := NewUnionFind(g)
	type shot struct {
		defects []int
		guard   []int32
	}
	shots := make([]shot, 64)
	defects := 0
	for i := range shots {
		var s shot
		lit := make([]bool, g.Nodes())
		for e := 0; e < g.Edges(); e++ {
			if rng.Float64() < 0.0065 {
				a, c := g.Ends(e)
				lit[a] = !lit[a]
				lit[c] = !lit[c]
			}
		}
		for v := 0; v < w*nc; v++ {
			if lit[v] {
				s.defects = append(s.defects, v)
			}
		}
		uf.Decode(s.defects, func(int) {})
		for v := 0; v < w*nc && len(s.guard) < 64; v++ {
			if uf.node[v].stamp>>1 == uf.epoch || rng.IntN(8) != 0 {
				continue
			}
			quiet := true
			for _, sl := range g.adj[g.off[v]:g.off[v+1]] {
				quiet = quiet && uf.rem[sl.edge]&untouched != 0
			}
			if quiet {
				s.guard = append(s.guard, int32(v))
			}
		}
		shots[i] = s
		defects += len(s.defects)
	}
	var comps Components
	comps.Init(0, int32(commit*nc), 512, 8192, 2048, 4096)
	var corr []int32
	sweeps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shots[i%len(shots)]
		var ok bool
		corr, ok = uf.DecodeGuarded(s.defects, nil, s.guard, corr[:0], &comps)
		if !ok {
			b.Fatalf("shot %d: guarded decode conflicted", i%len(shots))
		}
		sweeps += uf.GrowthSweeps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/decode")
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/decode")
	b.ReportMetric(float64(defects)/float64(len(shots)), "defects/decode")
}
