package core

import (
	"math/rand"
	"testing"

	"accals/internal/aig"
	"accals/internal/lac"
)

// mkLAC fabricates a LAC with explicit ids and estimated error.
func mkLAC(target int, sns []int, dE float64) *lac.LAC {
	return &lac.LAC{Target: target, SNs: sns, Fn: lac.Fn{Kind: lac.FnWire}, Gain: 1, DeltaE: dE}
}

// paperExample returns the six LACs of the paper's Fig. 2 / Example 3,
// ordered T1..T6 by ascending error increase.
func paperExample() []*lac.LAC {
	return []*lac.LAC{
		mkLAC(3, []int{1}, 0.01),    // T1: L({1},3)
		mkLAC(4, []int{1, 3}, 0.02), // T2: L({1,3},4)
		mkLAC(4, []int{2}, 0.03),    // T3: L({2},4)
		mkLAC(5, []int{3, 4}, 0.04), // T4: L({3,4},5)
		mkLAC(6, []int{5}, 0.05),    // T5: L({5},6)
		mkLAC(7, []int{8, 9}, 0.06), // T6: L({8,9},7)
	}
}

func TestBuildConflictGraphPaperExample(t *testing.T) {
	g := BuildConflictGraph(paperExample())
	// Expected edges (0-indexed): T1-T2, T2-T3, T2-T4, T3-T4, T4-T5,
	// and T1-T4 (SN 3 of T4 is the TN of T1 — a Type-2 conflict by
	// Definition 1, though the paper's figure does not draw it).
	wantEdges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {0, 3}}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing conflict edge T%d-T%d", e[0]+1, e[1]+1)
		}
	}
	if g.NumEdges() != len(wantEdges) {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
}

func TestFindSolveLACConfPaperExample(t *testing.T) {
	lSol, nSol, edges := findSolveLACConf(paperExample())
	if edges == 0 {
		t.Fatalf("conflict edges = 0, want > 0 for the paper example")
	}
	// Example 4: S_sel = {T1, T3, T5, T6} -> TNs {3, 4, 6, 7}.
	wantTNs := []int{3, 4, 6, 7}
	if len(nSol) != len(wantTNs) {
		t.Fatalf("N_sol = %v, want %v", nSol, wantTNs)
	}
	for i, want := range wantTNs {
		if nSol[i] != want {
			t.Fatalf("N_sol = %v, want %v", nSol, wantTNs)
		}
	}
	// After conflict resolution, all targets are unique.
	seen := map[int]bool{}
	for _, l := range lSol {
		if seen[l.Target] {
			t.Fatalf("duplicate target %d in L_sol", l.Target)
		}
		seen[l.Target] = true
	}
}

func TestObtainTopSetEq2(t *testing.T) {
	var lacs []*lac.LAC
	for i := 0; i < 50; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, float64(i)*0.001))
	}
	sortByDeltaE(lacs)

	// Fresh circuit (e = 0): r_top = r_ref when r_ref < |cands|.
	if got := obtainTopSet(lacs, 0, 0.05, 30); len(got) != 30 {
		t.Errorf("e=0: r_top = %d, want 30", len(got))
	}
	// Halfway through the budget: r_top halves.
	if got := obtainTopSet(lacs, 0.025, 0.05, 30); len(got) != 15 {
		t.Errorf("e=eb/2: r_top = %d, want 15", len(got))
	}
	// Near the bound: shrinks to 1.
	if got := obtainTopSet(lacs, 0.0499, 0.05, 30); len(got) != 1 {
		t.Errorf("e~eb: r_top = %d, want 1", len(got))
	}
	// r_min overrides r_ref when many LACs tie at the minimum.
	tied := make([]*lac.LAC, 40)
	for i := range tied {
		tied[i] = mkLAC(i+1, nil, 0)
	}
	if got := obtainTopSet(tied, 0, 0.05, 10); len(got) != 40 {
		t.Errorf("tied minimum: r_top = %d, want 40", len(got))
	}
	// Clamp to the candidate count.
	if got := obtainTopSet(lacs[:5], 0, 0.05, 100); len(got) != 5 {
		t.Errorf("clamp: r_top = %d, want 5", len(got))
	}
}

func TestBudgetedPrefix(t *testing.T) {
	p := Params{RSel: 4, Lambda: 0.9}
	eb := 0.10 // limit = 0.09

	// Many non-positive LACs: all of them are taken.
	lacs := []*lac.LAC{
		mkLAC(1, nil, -0.01), mkLAC(2, nil, 0), mkLAC(3, nil, 0),
		mkLAC(4, nil, 0), mkLAC(5, nil, 0.01),
	}
	if got := budgetedPrefix(lacs, 0, eb, p); len(got) != 4 {
		t.Errorf("r_neg rule: got %d, want 4", len(got))
	}

	// Budget-limited prefix: e=0.05, limit 0.09.
	lacs = []*lac.LAC{
		mkLAC(1, nil, 0.01), mkLAC(2, nil, 0.02),
		mkLAC(3, nil, 0.03), mkLAC(4, nil, 0.04),
	}
	// Prefix sums: .06, .08, .11 -> first two fit.
	if got := budgetedPrefix(lacs, 0.05, eb, p); len(got) != 2 {
		t.Errorf("budget rule: got %d, want 2", len(got))
	}

	// Even the best LAC exceeds the budget: take exactly one.
	lacs = []*lac.LAC{mkLAC(1, nil, 0.2), mkLAC(2, nil, 0.3)}
	if got := budgetedPrefix(lacs, 0.05, eb, p); len(got) != 1 {
		t.Errorf("overflow rule: got %d, want 1", len(got))
	}

	// r_sel caps the prefix even when the budget would allow more.
	lacs = nil
	for i := 0; i < 10; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, 0.001))
	}
	if got := budgetedPrefix(lacs, 0, eb, p); len(got) != 4 {
		t.Errorf("r_sel cap: got %d, want 4", len(got))
	}
}

func TestSelectRandomLACsBounds(t *testing.T) {
	p := Params{RSel: 5, Lambda: 0.9, Seed: 3}
	rng := rand.New(rand.NewSource(p.Seed))
	var lacs []*lac.LAC
	for i := 0; i < 20; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, 0.001))
	}
	got := selectRandomLACs(lacs, 0, 0.1, p, rng)
	if len(got) < 1 || len(got) > 5 {
		t.Fatalf("random set size %d outside [1, r_sel]", len(got))
	}
	seen := map[int]bool{}
	for _, l := range got {
		if seen[l.Target] {
			t.Fatal("duplicate LAC in random set")
		}
		seen[l.Target] = true
	}
}

func TestInfluenceIndex(t *testing.T) {
	// Chain: a -> x -> y -> z, plus w off to the side sharing z.
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(y, a)
	g.AddPO(z, "z")

	idx := newInfluenceIndex(g)
	// Direct fanin-fanout pairs: distance 1 -> p = 1.
	if p := idx.pji(x.Node(), y.Node()); p != 1 {
		t.Errorf("p(x,y) = %g, want 1", p)
	}
	// Two hops: p = 0.5.
	if p := idx.pji(x.Node(), z.Node()); p != 0.5 {
		t.Errorf("p(x,z) = %g, want 0.5", p)
	}
	// Symmetric in argument order.
	if idx.pji(y.Node(), x.Node()) != idx.pji(x.Node(), y.Node()) {
		t.Error("pji not order-insensitive")
	}
}

func TestInfluenceIndexDisconnected(t *testing.T) {
	// x1 and x2 do not reach each other but share their only fanout y:
	// overlap = |{y}| / |{x, y}| = 0.5.
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	x1 := g.And(a, b)
	x2 := g.And(c, d)
	y := g.And(x1, x2)
	g.AddPO(y, "y")

	idx := newInfluenceIndex(g)
	if p := idx.pji(x1.Node(), x2.Node()); p != 0.5 {
		t.Errorf("p(x1,x2) = %g, want 0.5", p)
	}
}

func TestEstimatedErrorClampsAtZero(t *testing.T) {
	set := []*lac.LAC{mkLAC(1, nil, -0.5)}
	if e := estimatedError(0.1, set); e != 0 {
		t.Fatalf("estimatedError = %g, want clamp to 0", e)
	}
	if e := estimatedError(0.1, nil); e != 0.1 {
		t.Fatalf("estimatedError(empty) = %g, want 0.1", e)
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	small := DefaultParams(100)
	mid := DefaultParams(1000)
	large := DefaultParams(10000)
	if small.RRef != 100 || small.RSel != 20 {
		t.Errorf("small: %d/%d", small.RRef, small.RSel)
	}
	if mid.RRef != 200 || mid.RSel != 40 {
		t.Errorf("mid: %d/%d", mid.RRef, mid.RSel)
	}
	if large.RRef != 400 || large.RSel != 80 {
		t.Errorf("large: %d/%d", large.RRef, large.RSel)
	}
	if small.TB != 0.5 || small.Lambda != 0.9 || small.LE != 0.9 || small.LD != 0.3 {
		t.Error("paper defaults wrong")
	}
}

// TestBestLACMatchesSortHead checks the single-selection min-scan
// against its oracle, the head of the stable sort, on candidate lists
// dense with ties in every key (ΔE, gain and target), where only the
// input order separates equal candidates.
func TestBestLACMatchesSortHead(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cands := make([]*lac.LAC, 1+rng.Intn(30))
		for i := range cands {
			cands[i] = &lac.LAC{Target: rng.Intn(4), Gain: rng.Intn(3), DeltaE: float64(rng.Intn(3)) * 0.01}
		}
		best := bestLAC(cands)
		sortByDeltaE(cands)
		if best != cands[0] {
			t.Fatalf("trial %d: bestLAC picked %+v, sort head is %+v", trial, *best, *cands[0])
		}
	}
}
