package estimator

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

var allMetrics = []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED, errmetric.MRED, errmetric.MaxED}

// reconvergentCircuit builds a two-output circuit whose paths reconverge
// (x feeds both outputs, through y and z, and y and z meet again), so
// the single-pass propagation masks are not exact.
func reconvergentCircuit() *aig.Graph {
	g := aig.New("reconv")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(x, d.Not())
	g.AddPO(g.Or(y, z), "o0")
	g.AddPO(g.Xor(x, g.And(y, d)), "o1")
	return g
}

// approximate returns g with up to n conflict-free candidates applied,
// so that the circuit under estimation differs from the reference.
func approximate(g *aig.Graph, p *simulate.Patterns, n int) *aig.Graph {
	res := simulate.MustRun(g, p)
	used := map[int]bool{}
	var set []*lac.LAC
	for _, l := range lac.Generate(g, res, lac.Config{}) {
		if used[l.Target] || len(set) == n {
			continue
		}
		used[l.Target] = true
		set = append(set, l)
	}
	return lac.Apply(g, set)
}

// cloneLACs returns fresh copies of the candidates with DeltaE cleared.
func cloneLACs(lacs []*lac.LAC) []*lac.LAC {
	out := make([]*lac.LAC, len(lacs))
	for i, l := range lacs {
		c := *l
		c.DeltaE = 0
		out[i] = &c
	}
	return out
}

// checkMatchesOracle estimates lacs with the factored Estimator at each
// worker count and with estimatePerLAC, and requires the same current
// error and bit-identical DeltaE for every candidate.
func checkMatchesOracle(t *testing.T, g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, workers ...int) {
	t.Helper()
	want := cloneLACs(lacs)
	wantErr := estimatePerLAC(g, res, cmp, want)
	for _, w := range workers {
		got := cloneLACs(lacs)
		gotErr := New(w).EstimateAllRec(g, res, cmp, got, nil)
		if math.Float64bits(gotErr) != math.Float64bits(wantErr) {
			t.Fatalf("workers=%d: current error %v, oracle %v", w, gotErr, wantErr)
		}
		for i := range got {
			if math.Float64bits(got[i].DeltaE) != math.Float64bits(want[i].DeltaE) {
				t.Fatalf("workers=%d: cand %d (%v): DeltaE %v, oracle %v", w, i, got[i], got[i].DeltaE, want[i].DeltaE)
			}
		}
	}
}

// TestEstimateMatchesOracle requires the factored estimator to be
// bit-identical to the per-LAC oracle across metrics, circuits, worker
// counts and pattern counts, on both an exact and an approximated
// current circuit. The batches must include targets shared by several
// LACs, the case factoring is for.
func TestEstimateMatchesOracle(t *testing.T) {
	byName := func(name string) func() *aig.Graph {
		return func() *aig.Graph {
			g, err := circuits.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name    string
		build   func() *aig.Graph
		bitOnly bool // wider than the 63 outputs of the word-level metrics
	}{
		{"tree", treeCircuit, false},
		{"reconvergent", reconvergentCircuit, false},
		{"mtp8", byName("mtp8"), false},
		{"rca8", byName("rca8"), false},
		{"rca62", func() *aig.Graph { return circuits.RCA(62) }, false},
		{"wide", func() *aig.Graph { return circuits.RandomLogic("wide", 40, 100, 600, 7) }, true},
	}
	shared := false
	for _, tc := range cases {
		ref := tc.build()
		for _, pats := range []int{1024, 1000} {
			p := simulate.NewPatterns(ref.NumPIs(), pats, 5)
			for _, approx := range []bool{false, true} {
				g := ref
				if approx {
					g = approximate(ref, p, 3)
				}
				res := simulate.MustRun(g, p)
				cands := lac.Generate(g, res, lac.Config{EnableResub: true})
				perTarget := map[int]int{}
				for _, l := range cands {
					perTarget[l.Target]++
					shared = shared || perTarget[l.Target] > 1
				}
				for _, kind := range allMetrics {
					if tc.bitOnly && kind.IsWordLevel() {
						continue
					}
					t.Run(fmt.Sprintf("%s/%d/approx=%v/%v", tc.name, pats, approx, kind), func(t *testing.T) {
						checkMatchesOracle(t, g, res, errmetric.NewComparator(kind, ref, p), cands, 1, 2, 4)
					})
				}
			}
		}
	}
	if !shared {
		t.Error("no batch has several LACs on one target")
	}
}

// TestEstimateUnreachedAndDeadLACs covers a target that no output's cone
// reaches (every propagation mask nil) and a LAC whose deviation mask
// is empty, on a current circuit that differs from the reference.
func TestEstimateUnreachedAndDeadLACs(t *testing.T) {
	ref := aig.New("ref")
	ra, rb, rc := ref.AddPI("a"), ref.AddPI("b"), ref.AddPI("c")
	ref.AddPO(ref.And(ra, rc), "y0")
	ref.AddPO(ref.Xor(rb, rc), "y1")

	g := aig.New("cur")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	dangling := g.And(a, b) // feeds no output
	y0 := g.And(a, c.Not())
	g.AddPO(y0, "y0")
	g.AddPO(g.Or(b, c), "y1")

	p := simulate.Exhaustive(3)
	res := simulate.MustRun(g, p)
	dead := &lac.LAC{Target: y0.Node(), SNs: []int{a.Node(), c.Node()}, Fn: lac.Fn{Kind: lac.FnAnd, C1: true}}
	if _, n := dead.DeviationInto(make(simulate.Vec, p.Words()), res); n != 0 {
		t.Fatalf("dead LAC deviates on %d patterns", n)
	}
	lacs := []*lac.LAC{
		{Target: dangling.Node(), Fn: lac.Fn{Kind: lac.FnConst0}},
		{Target: dangling.Node(), Fn: lac.Fn{Kind: lac.FnConst1}},
		dead,
		{Target: y0.Node(), Fn: lac.Fn{Kind: lac.FnConst1}},
	}
	prop := &propagator{}
	prop.reset(g, res)
	for j := 0; j < g.NumPOs(); j++ {
		if prop.run(j)[dangling.Node()] != nil {
			t.Fatalf("output %d reaches the dangling node", j)
		}
	}
	for _, kind := range allMetrics {
		t.Run(kind.String(), func(t *testing.T) {
			checkMatchesOracle(t, g, res, errmetric.NewComparator(kind, ref, p), lacs, 1, 2, 4)
		})
	}
}

// TestEstimateSampledNMED drives candidates whose changed patterns
// exceed the word-level flip sample budget, so the strided sampling
// path runs, and requires it to stay bit-identical to the oracle.
func TestEstimateSampledNMED(t *testing.T) {
	ref := circuits.ArrayMult(8)
	p := simulate.Exhaustive(ref.NumPIs())
	g := approximate(ref, p, 2)
	res := simulate.MustRun(g, p)

	// Each output's reach at every node, to pick the candidates whose
	// changed set dv & reach is over errmetric's 16384-pattern budget.
	reach := make([]simulate.Vec, g.NumNodes())
	prop := &propagator{}
	prop.reset(g, res)
	for j := 0; j < g.NumPOs(); j++ {
		for n, pm := range prop.run(j) {
			if pm == nil {
				continue
			}
			if reach[n] == nil {
				reach[n] = make(simulate.Vec, p.Words())
			}
			for w := range pm {
				reach[n][w] |= pm[w]
			}
		}
	}
	var lacs []*lac.LAC
	sampled := 0
	for _, l := range lac.Generate(g, res, lac.Config{}) {
		if reach[l.Target] == nil || len(lacs) == 48 {
			continue
		}
		dv, _ := l.DeviationInto(make(simulate.Vec, p.Words()), res)
		changed := 0
		for w := range dv {
			changed += bits.OnesCount64(dv[w] & reach[l.Target][w])
		}
		if changed > 16384 {
			sampled++
		}
		if changed > 16384 || len(lacs) < 8 {
			lacs = append(lacs, l)
		}
	}
	if sampled < 4 {
		t.Fatalf("only %d candidates exceed the sample budget", sampled)
	}
	for _, kind := range []errmetric.Kind{errmetric.NMED, errmetric.MRED} {
		t.Run(kind.String(), func(t *testing.T) {
			checkMatchesOracle(t, g, res, errmetric.NewComparator(kind, ref, p), lacs, 1, 2, 4)
		})
	}
}

// TestEstimateSteadyStateAllocs bounds what a repeat EstimateAllRec on
// the same round allocates once the Estimator's pooled scratch is warm:
// a handful of per-call headers, independent of the candidate count.
func TestEstimateSteadyStateAllocs(t *testing.T) {
	ref := circuits.ArrayMult(6)
	p := simulate.NewPatterns(ref.NumPIs(), 1024, 1)
	g := approximate(ref, p, 3)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	for _, kind := range allMetrics {
		cmp := errmetric.NewComparator(kind, ref, p)
		for _, workers := range []int{1, 2} {
			e := New(workers)
			e.EstimateAllRec(g, res, cmp, cands, nil)
			allocs := testing.AllocsPerRun(5, func() { e.EstimateAllRec(g, res, cmp, cands, nil) })
			if allocs > steadyStateAllocBound {
				t.Errorf("%v workers=%d: %v allocations per call over %d candidates, want <= %d", kind, workers, allocs, len(cands), steadyStateAllocBound)
			}
		}
	}
}

// steadyStateAllocBound is the per-call allocation ceiling of a warm
// Estimator, well under one allocation per candidate.
const steadyStateAllocBound = 40

// FuzzEstimateMatchesOracle requires bit-identical DeltaE between the
// factored estimator and estimatePerLAC on a random circuit, pattern
// set, metric and candidate batch derived from the fuzz input.
func FuzzEstimateMatchesOracle(f *testing.F) {
	seeds := []struct {
		nPI, nPO, ands uint8
		graphSeed      int64
		patterns       uint16
		patSeed        int64
		metric, approx uint8
		pick           uint64
		workers        uint8
	}{
		{4, 1, 12, 1, 16, 1, 0, 0, ^uint64(0), 0},           // ER, exhaustive, exact circuit
		{8, 5, 60, 2, 1000, 2, 1, 2, ^uint64(0), 1},         // MHD, approximated
		{9, 6, 70, 3, 700, 3, 2, 1, 0x5555555555555555, 2},  // NMED
		{7, 4, 40, 4, 130, 4, 3, 3, ^uint64(0), 3},          // MRED
		{10, 8, 80, 5, 512, 5, 4, 2, 0xf0f0f0f0f0f0f0f0, 1}, // MaxED
	}
	for _, s := range seeds {
		f.Add(s.nPI, s.nPO, s.ands, s.graphSeed, s.patterns, s.patSeed, s.metric, s.approx, s.pick, s.workers)
	}
	f.Fuzz(func(t *testing.T, nPI, nPO, ands uint8, graphSeed int64, patterns uint16, patSeed int64, metric, approx uint8, pick uint64, workers uint8) {
		ref := circuits.RandomLogic("fuzz", 2+int(nPI%10), 1+int(nPO%12), 1+int(ands%90), graphSeed)
		p := simulate.NewPatterns(ref.NumPIs(), 1+int(patterns%1200), patSeed)
		g := approximate(ref, p, int(approx%4))
		res := simulate.MustRun(g, p)
		var batch []*lac.LAC
		for i, l := range lac.Generate(g, res, lac.Config{EnableResub: true}) {
			if pick>>(uint(i)%64)&1 != 0 {
				batch = append(batch, l)
			}
		}
		cmp := errmetric.NewComparator(allMetrics[int(metric)%len(allMetrics)], ref, p)
		checkMatchesOracle(t, g, res, cmp, batch, 1+int(workers%4))
	})
}
