package core

import (
	"testing"

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
	l := newLoop(g, cmp, 0.1, Options{Workers: 1})
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
