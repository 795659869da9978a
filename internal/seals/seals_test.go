package seals

import (
	"context"
	"testing"

	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

func TestRunRespectsErrorBound(t *testing.T) {
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED} {
		g := circuits.ArrayMult(4)
		bound := 0.01
		res := core.RunSEALSCtx(context.Background(), g, kind, bound, core.Options{})
		if res.Error > bound {
			t.Fatalf("%v: error %g exceeds bound", kind, res.Error)
		}
		if res.Final.NumAnds() >= g.NumAnds() {
			t.Fatalf("%v: no area reduction", kind)
		}
		p := simulate.Exhaustive(g.NumPIs())
		cmp := errmetric.NewComparator(kind, g, p)
		if e := cmp.Error(res.Final); e > bound {
			t.Fatalf("%v: independent error %g exceeds bound", kind, e)
		}
	}
}

func TestRunAppliesOneLACPerRound(t *testing.T) {
	g := circuits.CLA(8)
	res := core.RunSEALSCtx(context.Background(), g, errmetric.ER, 0.02, core.Options{})
	for _, rs := range res.Rounds {
		if rs.AppliedLACs != 1 {
			t.Fatalf("round %d applied %d LACs", rs.Round, rs.AppliedLACs)
		}
	}
	if res.LACsApplied != len(res.Rounds) {
		t.Fatalf("LACsApplied %d != rounds %d", res.LACsApplied, len(res.Rounds))
	}
}

func TestAccALSUsesFewerRoundsThanSEALS(t *testing.T) {
	// The paper's headline: multi-LAC selection cuts the number of
	// rounds (and hence the runtime) substantially at similar quality.
	g := circuits.ArrayMult(4)
	bound := 0.05
	s := core.RunSEALSCtx(context.Background(), g, errmetric.ER, bound, core.Options{})
	a := core.Run(g, errmetric.ER, bound, core.Options{})
	if len(a.Rounds) >= len(s.Rounds) {
		t.Fatalf("AccALS rounds (%d) not fewer than SEALS rounds (%d)",
			len(a.Rounds), len(s.Rounds))
	}
	// Quality stays comparable: within 25%% relative area.
	sa, aa := s.Final.NumAnds(), a.Final.NumAnds()
	if float64(aa) > 1.25*float64(sa)+2 {
		t.Fatalf("AccALS area %d much worse than SEALS %d", aa, sa)
	}
}

func TestSortCandidates(t *testing.T) {
	mk := func(dE float64, gain, tn int) *lac.LAC {
		return &lac.LAC{Target: tn, Fn: lac.Fn{Kind: lac.FnConst0}, Gain: gain, DeltaE: dE}
	}
	cands := []*lac.LAC{mk(0.2, 1, 1), mk(0.1, 1, 2), mk(0.1, 5, 3)}
	SortCandidates(cands)
	if cands[0].Target != 3 || cands[1].Target != 2 || cands[2].Target != 1 {
		t.Fatalf("order: %v %v %v", cands[0], cands[1], cands[2])
	}
}
