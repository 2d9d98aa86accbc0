package decoder

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// TestNodeRecordIsOneCacheLine pins the per-node record at 64 bytes: a
// field added past that splits every record across two cache lines.
func TestNodeRecordIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(ufNode{}); n != 64 {
		t.Fatalf("ufNode is %d bytes, want 64", n)
	}
}

// windowGraph builds an open-boundary window graph shaped like the
// streaming decoder's: an n×n torus per layer over w layers, horizontal
// and vertical edges plus (when diag) a diagonal class, the newest
// layer's verticals and diagonals grounding on one virtual boundary node
// (the last node). Edge weights come from weight(class), class 0
// horizontal, 1 vertical, 2 diagonal, called once per edge in id order.
func windowGraph(n, w int, diag bool, weight func(class int) int32) *Graph {
	nc := n * n
	bnd := int32(w * nc)
	var ends [][2]int32
	var weights []int32
	add := func(class int, a, b int32) {
		ends = append(ends, [2]int32{a, b})
		weights = append(weights, weight(class))
	}
	at := func(t, x, y int) int32 { return int32(t*nc + ((y+n)%n)*n + (x+n)%n) }
	for t := 0; t < w; t++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				add(0, at(t, x, y), at(t, x, y-1))
				add(0, at(t, x, y), at(t, x-1, y))
			}
		}
	}
	for t := 0; t < w; t++ {
		for c := 0; c < nc; c++ {
			up := bnd
			if t+1 < w {
				up = int32((t+1)*nc + c)
			}
			add(1, int32(t*nc+c), up)
		}
	}
	if diag {
		for t := 0; t < w; t++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					up := bnd
					if t+1 < w {
						up = at(t+1, x+1, y)
					}
					add(2, at(t, x, y), up)
				}
			}
		}
	}
	return NewBoundaryGraph(w*nc+1, ends, weights, []int{int(bnd)})
}

// oracleWindowGraph is a windowGraph whose every edge draws its weight
// from ws.
func oracleWindowGraph(rng *rand.Rand, n, w int, diag bool, ws []int32) *Graph {
	return windowGraph(n, w, diag, func(int) int32 { return ws[rng.IntN(len(ws))] })
}

// oracleSparseGraph builds a random connected graph: a random spanning
// tree plus extra edges (parallel edges allowed), with 0–2 boundary
// nodes. With no boundary the graph is closed.
func oracleSparseGraph(rng *rand.Rand, nodes int, ws []int32, boundaries int) *Graph {
	var ends [][2]int32
	var weights []int32
	add := func(a, b int) {
		ends = append(ends, [2]int32{int32(a), int32(b)})
		weights = append(weights, ws[rng.IntN(len(ws))])
	}
	perm := rng.Perm(nodes)
	for i := 1; i < nodes; i++ {
		add(perm[i], perm[rng.IntN(i)])
	}
	for k := rng.IntN(2 * nodes); k > 0; k-- {
		a, b := rng.IntN(nodes), rng.IntN(nodes)
		if a != b {
			add(a, b)
		}
	}
	var boundary []int
	for len(boundary) < boundaries {
		boundary = append(boundary, rng.IntN(nodes))
	}
	return NewBoundaryGraph(nodes, ends, weights, boundary)
}

// oracleShot is one random decode input on g: defects (even per closed
// graph, any parity with an open boundary), erased edges, a guard set
// disjoint from the defects, and a retention band with budgets that are
// tight half of the time.
type oracleShot struct {
	defects, erased []int
	guard           []int32
	lo, hi          int32
	budget          [4]int
}

func randomShot(rng *rand.Rand, g *Graph, density float64) oracleShot {
	var s oracleShot
	n := g.Nodes()
	open := false
	for v := 0; v < n; v++ {
		open = open || g.IsBoundary(v)
	}
	if open {
		for v := 0; v < n; v++ {
			if !g.IsBoundary(v) && rng.Float64() < density {
				s.defects = append(s.defects, v)
			}
		}
	} else {
		// The syndrome of a random error pattern: even parity on a
		// connected closed graph.
		par := make([]bool, n)
		for e := 0; e < g.Edges(); e++ {
			if rng.Float64() < density/2 {
				a, b := g.Ends(e)
				par[a] = !par[a]
				par[b] = !par[b]
			}
		}
		for v, p := range par {
			if p {
				s.defects = append(s.defects, v)
			}
		}
	}
	if rng.IntN(3) == 0 {
		for k := rng.IntN(1 + g.Edges()/20); k > 0; k-- {
			s.erased = append(s.erased, rng.IntN(g.Edges()))
		}
	}
	if rng.IntN(2) == 0 {
		isDef := make([]bool, n)
		for _, d := range s.defects {
			isDef[d] = true
		}
		for v := 0; v < n; v++ {
			if !isDef[v] && !g.IsBoundary(v) && rng.Float64() < density/2 {
				s.guard = append(s.guard, int32(v))
			}
		}
	}
	s.lo = int32(rng.IntN(n/2 + 1))
	s.hi = s.lo + int32(rng.IntN(n))
	s.budget = [4]int{rng.IntN(8), rng.IntN(4 * n / 3), rng.IntN(12), rng.IntN(2 * n / 3)}
	if rng.IntN(2) == 0 {
		s.lo, s.hi = 0, int32(n)
		s.budget = [4]int{n, 2 * n, n, 2 * n}
	}
	return s
}

// checkOracle decodes shot on both kernels through every entry point
// and fails on any difference: emit order, GrowthSweeps, conflict and
// conflict node, and every Components slice. It reports whether the
// guarded decode conflicted and how many clusters it extracted.
func checkOracle(t *testing.T, tag string, uf *UnionFind, ref *refUnionFind, s oracleShot) (bool, int) {
	t.Helper()
	var got, want Components
	got.Init(s.lo, s.hi, s.budget[0], s.budget[1], s.budget[2], s.budget[3])
	want.Init(s.lo, s.hi, s.budget[0], s.budget[1], s.budget[2], s.budget[3])
	gc, gok := uf.DecodeGuarded(s.defects, s.erased, s.guard, nil, &got)
	wc, wok := ref.DecodeGuarded(s.defects, s.erased, s.guard, nil, &want)
	if gok != wok || got.Conflict != want.Conflict || got.ConflictNode != want.ConflictNode {
		t.Fatalf("%s: ok/conflict/node = %v/%v/%d, reference %v/%v/%d", tag, gok, got.Conflict, got.ConflictNode, wok, want.Conflict, want.ConflictNode)
	}
	if uf.GrowthSweeps() != ref.sweeps {
		t.Fatalf("%s: %d growth sweeps, reference %d", tag, uf.GrowthSweeps(), ref.sweeps)
	}
	if !slices.Equal(gc, wc) {
		t.Fatalf("%s: correction %v, reference %v", tag, gc, wc)
	}
	for _, f := range []struct {
		name string
		a, b []int32
	}{
		{"NodeOff", got.NodeOff, want.NodeOff}, {"Node", got.Node, want.Node},
		{"DefOff", got.DefOff, want.DefOff}, {"Def", got.Def, want.Def},
		{"CorrOff", got.CorrOff, want.CorrOff}, {"Corr", got.Corr, want.Corr},
	} {
		if !slices.Equal(f.a, f.b) {
			t.Fatalf("%s: Components.%s %v, reference %v", tag, f.name, f.a, f.b)
		}
	}
	// The unguarded, extraction-free paths must agree as well.
	var plain []int32
	uf.DecodeErased(s.defects, s.erased, func(e int) { plain = append(plain, int32(e)) })
	rc, _ := ref.DecodeGuarded(s.defects, s.erased, nil, nil, nil)
	if !slices.Equal(plain, rc) || uf.GrowthSweeps() != ref.sweeps {
		t.Fatalf("%s: unguarded emit %v (%d sweeps), reference %v (%d sweeps)", tag, plain, uf.GrowthSweeps(), rc, ref.sweeps)
	}
	return got.Conflict, got.N()
}

// TestUnionFindMatchesReferenceKernel is the kernel's bit-identity
// oracle: on random open-boundary and closed graphs with mixed weights
// whose smallest full-support target is 2, 4 or 6 half-steps, with
// erasures, guard sets and tight extraction budgets, the production
// kernel must reproduce the reference kernel's every output. Each pair
// of instances is reused across shots, so scratch recycling is covered
// too.
func TestUnionFindMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1201, 1202))
	weightSets := [][]int32{
		{1, 2, 3},    // t_min 2: no fused sweeps
		{2, 2, 3},    // t_min 4: the circuit-level window weights
		{2, 5},       // t_min 4
		{3, 4, 7},    // t_min 6
		{3},          // uniform t_min 6
		{1, 16, 200}, // wide spread
	}
	shots := 120
	if testing.Short() {
		shots = 40
	}
	var conflicts, clean, extracted int
	for _, ws := range weightSets {
		graphs := []*Graph{
			oracleWindowGraph(rng, 3+rng.IntN(4), 2+rng.IntN(6), true, ws),
			oracleWindowGraph(rng, 3+rng.IntN(3), 2+rng.IntN(4), false, ws),
			oracleSparseGraph(rng, 10+rng.IntN(80), ws, 1+rng.IntN(2)),
			oracleSparseGraph(rng, 10+rng.IntN(80), ws, 0),
		}
		for gi, g := range graphs {
			uf, ref := NewUnionFind(g), newRefUnionFind(g)
			for k := 0; k < shots; k++ {
				density := []float64{0.01, 0.05, 0.15, 0.4}[k%4]
				tag := fmt.Sprintf("weights %v graph %d shot %d", ws, gi, k)
				conflict, n := checkOracle(t, tag, uf, ref, randomShot(rng, g, density))
				if conflict {
					conflicts++
				} else {
					clean++
				}
				extracted += n
			}
		}
	}
	// The generator must reach every branch the oracle guards.
	if conflicts == 0 || clean == 0 || extracted == 0 {
		t.Fatalf("weak coverage: %d conflicts, %d clean decodes, %d extracted clusters", conflicts, clean, extracted)
	}
	t.Logf("%d conflicts, %d clean decodes, %d extracted clusters", conflicts, clean, extracted)
}

// TestUnionFindMatchesReferenceAcrossEpochWrap runs the oracle across
// the 30-bit scratch-epoch wraparound, where every stamp is cleared.
func TestUnionFindMatchesReferenceAcrossEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1203, 1204))
	g := oracleWindowGraph(rng, 4, 6, true, []int32{2, 2, 3})
	uf, ref := NewUnionFind(g), newRefUnionFind(g)
	uf.epoch, ref.epoch = 1<<30-4, 1<<30-4
	for k := 0; k < 12; k++ {
		checkOracle(t, fmt.Sprintf("wrap shot %d", k), uf, ref, randomShot(rng, g, 0.08))
	}
}
