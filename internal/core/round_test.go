package core

import (
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// TestFinishRoundStagnationCounter pins the round tail's stagnation
// rule: a multi-LAC round that neither shrinks the circuit nor raises
// the error advances the counter, one that shrinks it resets the
// counter, and a single-LAC (technique 1) round leaves the counter
// untouched either way. StagnationRounds no-progress rounds stop the
// run.
func TestFinishRoundStagnationCounter(t *testing.T) {
	g := circuits.ArrayMult(4)
	smaller := circuits.ArrayMult(3)
	cmp := errmetric.NewComparator(errmetric.ER, g, simulate.NewPatterns(g.NumPIs(), 64, 1))
	l := newLoop(accalsFlow, g, cmp, 0.1, Options{Workers: 1})
	steps := []struct {
		guard  bool
		shrink bool
		want   int
	}{
		{false, false, 1},
		{true, false, 1},
		{true, true, 1},
		{false, false, 2},
		{false, true, 0},
		{false, false, 1},
		{false, false, 2},
		{true, true, 2},
		{false, false, 3},
	}
	for i, s := range steps {
		r := &roundState{rs: RoundStats{Round: i, GuardSingle: s.guard}, g: g, gNew: g}
		if s.shrink {
			r.gNew = smaller
		}
		if _, stop := l.finishRound(r); stop {
			t.Fatalf("step %d: run stopped early", i)
		}
		if l.noProgress != s.want || l.result.Rounds[i].NoProgress != s.want {
			t.Fatalf("step %d: noProgress %d (published %d), want %d", i, l.noProgress, l.result.Rounds[i].NoProgress, s.want)
		}
	}
	r := &roundState{rs: RoundStats{Round: len(steps)}, g: g, gNew: g}
	if why, stop := l.finishRound(r); !stop || why != runctl.Stagnated {
		t.Fatalf("round %d: stop %v (%v), want Stagnated", len(steps), stop, why)
	}
}

// TestFinishRoundSEALSStagnation pins the SEALS flow's tail: its
// single-LAC rounds are not technique-1 rounds, so they update the
// stagnation counter, and two no-progress rounds in a row stop the run
// after publishing the second one.
func TestFinishRoundSEALSStagnation(t *testing.T) {
	g := circuits.ArrayMult(4)
	smaller := circuits.ArrayMult(3)
	cmp := errmetric.NewComparator(errmetric.ER, g, simulate.NewPatterns(g.NumPIs(), 64, 1))
	l := newLoop(sealsFlow, g, cmp, 0.1, Options{Workers: 1})
	for i, gNew := range []*aig.Graph{g, smaller, g} {
		if _, stop := l.finishRound(&roundState{rs: RoundStats{Round: i}, g: g, gNew: gNew}); stop {
			t.Fatalf("round %d: run stopped early", i)
		}
	}
	why, stop := l.finishRound(&roundState{rs: RoundStats{Round: 3}, g: g, gNew: g})
	if !stop || why != runctl.Stagnated {
		t.Fatalf("round 3: stop %v (%v), want Stagnated", stop, why)
	}
	if n := len(l.result.Rounds); n != 4 || l.result.Rounds[3].NoProgress != 2 {
		t.Fatalf("published %d rounds, last NoProgress %d; want 4 rounds ending at 2", n, l.result.Rounds[n-1].NoProgress)
	}
}
