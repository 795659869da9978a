package estimator

import (
	"math"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

func setup(t *testing.T, g *aig.Graph, kind errmetric.Kind) (*simulate.Result, *errmetric.Comparator, []*lac.LAC) {
	t.Helper()
	p := simulate.NewPatterns(g.NumPIs(), 1024, 3)
	cmp := errmetric.NewComparator(kind, g, p)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	return res, cmp, cands
}

func TestExactDeltaEMatchesFullApply(t *testing.T) {
	g := circuits.ArrayMult(3)
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MRED} {
		res, cmp, cands := setup(t, g, kind)
		for _, l := range cands[:10] {
			exact := ExactDeltaE(g, res, cmp, l)
			applied := lac.Apply(g, []*lac.LAC{l})
			want := cmp.Error(applied) // current error is 0
			if math.Abs(exact-want) > 1e-12 {
				t.Fatalf("%v/%v: ExactDeltaE = %g, full apply = %g", kind, l, exact, want)
			}
		}
	}
}

func TestResimulateWithMatchesFullSimulation(t *testing.T) {
	g := circuits.CLA(6)
	p := simulate.Exhaustive(g.NumPIs())
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	for _, l := range cands[:20] {
		fast := ResimulateWith(g, res, l)
		applied := lac.Apply(g, []*lac.LAC{l})
		full := simulate.MustRun(applied, p).POValues(applied)
		for j := range fast {
			for w := range fast[j] {
				if fast[j][w] != full[j][w] {
					t.Fatalf("LAC %v: PO %d word %d: %x vs %x", l, j, w, fast[j][w], full[j][w])
				}
			}
		}
	}
}

// treeCircuit builds a fanout-free circuit (every node feeds exactly
// one other node), on which the single-pass propagation is exact.
func treeCircuit() *aig.Graph {
	g := aig.New("tree")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	x := g.And(a, b)
	y := g.And(c.Not(), d)
	z := g.And(x, y.Not())
	g.AddPO(z, "z")
	return g
}

func TestEstimateExactOnTrees(t *testing.T) {
	g := treeCircuit()
	p := simulate.Exhaustive(4)
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MRED} {
		cmp := errmetric.NewComparator(kind, g, p)
		res := simulate.MustRun(g, p)
		cands := lac.Generate(g, res, lac.Config{EnableResub: true})
		New(1).EstimateAllRec(g, res, cmp, cands, nil)
		for _, l := range cands {
			want := ExactDeltaE(g, res, cmp, l)
			if math.Abs(l.DeltaE-want) > 1e-12 {
				t.Errorf("%v/%v: estimated %g, exact %g", kind, l, l.DeltaE, want)
			}
		}
	}
}

func TestEstimateCloseOnReconvergent(t *testing.T) {
	// On reconvergent circuits the single-pass estimate may deviate,
	// but it must stay within a loose bound and rank candidates
	// sensibly (zero-deviation LACs estimate to exactly zero).
	g := circuits.ArrayMult(4)
	res, cmp, cands := setup(t, g, errmetric.ER)
	curErr := New(1).EstimateAllRec(g, res, cmp, cands, nil)
	if curErr != 0 {
		t.Fatalf("current error of the original circuit = %g", curErr)
	}
	var worst float64
	for _, l := range cands {
		exact := ExactDeltaE(g, res, cmp, l)
		diff := math.Abs(l.DeltaE - exact)
		if diff > worst {
			worst = diff
		}
		if exact == 0 && l.DeltaE > 0.02 {
			t.Errorf("%v: exact 0 but estimated %g", l, l.DeltaE)
		}
	}
	if worst > 0.25 {
		t.Errorf("worst estimate gap %g exceeds tolerance", worst)
	}
}

func TestEstimateAllERMatchesWordLevelPath(t *testing.T) {
	// The ER fast path and the generic flip-mask path must agree on a
	// single-output circuit, where ER and per-PO flips coincide.
	g := treeCircuit()
	p := simulate.Exhaustive(4)
	cmp := errmetric.NewComparator(errmetric.ER, g, p)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	New(1).EstimateAllRec(g, res, cmp, cands, nil)
	for _, l := range cands {
		// For a single-output circuit ER equals NMED (max value 1).
		cmpN := errmetric.NewComparator(errmetric.NMED, g, p)
		l2 := &lac.LAC{Target: l.Target, SNs: l.SNs, Fn: l.Fn, Gain: l.Gain}
		New(1).EstimateAllRec(g, res, cmpN, []*lac.LAC{l2}, nil)
		if math.Abs(l.DeltaE-l2.DeltaE) > 1e-12 {
			t.Errorf("%v: ER path %g, word path %g", l, l.DeltaE, l2.DeltaE)
		}
	}
}

func TestEstimateDeadLACHasZeroDelta(t *testing.T) {
	// A LAC whose deviation mask is empty must estimate to zero.
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(x, "y")
	p := simulate.Exhaustive(2)
	cmp := errmetric.NewComparator(errmetric.ER, g, p)
	res := simulate.MustRun(g, p)
	// Wire LAC replacing x by itself-equivalent AND(a,b) via resub on
	// (a, b): zero deviation.
	l := &lac.LAC{Target: x.Node(), SNs: []int{a.Node(), b.Node()}, Fn: lac.Fn{Kind: lac.FnAnd}}
	New(1).EstimateAllRec(g, res, cmp, []*lac.LAC{l}, nil)
	if l.DeltaE != 0 {
		t.Fatalf("identical-function LAC has DeltaE = %g", l.DeltaE)
	}
}

func TestEstimateMHDExactOnTrees(t *testing.T) {
	g := treeCircuit()
	p := simulate.Exhaustive(4)
	cmp := errmetric.NewComparator(errmetric.MHD, g, p)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	New(1).EstimateAllRec(g, res, cmp, cands, nil)
	for _, l := range cands {
		want := ExactDeltaE(g, res, cmp, l)
		if math.Abs(l.DeltaE-want) > 1e-12 {
			t.Errorf("MHD/%v: estimated %g, exact %g", l, l.DeltaE, want)
		}
	}
}

func TestRunUnderMHD(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Exhaustive(g.NumPIs())
	cmp := errmetric.NewComparator(errmetric.MHD, g, p)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	cur := New(1).EstimateAllRec(g, res, cmp, cands, nil)
	if cur != 0 {
		t.Fatalf("fresh circuit error %g", cur)
	}
	for _, l := range cands[:20] {
		if l.DeltaE < -1e-12 {
			t.Fatalf("negative MHD delta on exact circuit: %v", l)
		}
	}
}
