package main

import (
	"testing"

	"accals"
)

// gateFixture is a one-job workload on mtp8 under ER 0.05 with its
// checker, the job's task and the original circuit.
func gateFixture(t *testing.T) (*checker, []task, *accals.Graph) {
	t.Helper()
	w := workload{Name: "gate", Sets: 1, Jobs: []job{{Circuit: "mtp8", Metric: "er", Bound: 0.05, Patterns: 512}}}
	orig, err := accals.Benchmark("mtp8")
	if err != nil {
		t.Fatal(err)
	}
	return newChecker(w, []*accals.Graph{orig}, 1), w.tasks(7, 1), orig
}

// zeroed returns orig with every output tied to constant 0: far over
// any small error-rate bound.
func zeroed(orig *accals.Graph) *accals.Graph {
	g := orig.Clone()
	for i := 0; i < g.NumPOs(); i++ {
		g.SetPO(i, accals.ConstFalse)
	}
	return g
}

func TestGatePassesExactCircuit(t *testing.T) {
	chk, ts, orig := gateFixture(t)
	chk.check(ts, []outcome{{Final: orig.Clone(), Error: 0, Stop: "bounded"}})
	if chk.failed != 0 || chk.checked != 1 {
		t.Fatalf("failed %d of %d, want 0 of 1: %v", chk.failed, chk.checked, chk.errs)
	}
}

func TestGateCountsOverBoundAsFailed(t *testing.T) {
	chk, ts, orig := gateFixture(t)
	over := zeroed(orig)
	// The reported error is the true one, so only the bound check fires.
	e := accals.Error(orig, over, accals.ER, 512, ts[0].Seed)
	if e <= 0.05 {
		t.Fatalf("fixture error %v is not over the bound", e)
	}
	chk.check(ts, []outcome{{Final: over, Error: e}})
	if chk.failed != 1 || chk.checked != 1 {
		t.Fatalf("failed %d of %d, want 1 of 1", chk.failed, chk.checked)
	}
	if len(chk.records()) != 0 {
		t.Fatal("a failed job left a determinism record")
	}
}

func TestGateCountsMisreportedErrorAsFailed(t *testing.T) {
	chk, ts, orig := gateFixture(t)
	chk.check(ts, []outcome{{Final: orig.Clone(), Error: 0.01}})
	if chk.failed != 1 {
		t.Fatalf("failed %d, want 1: a reported error that re-measures differently must fail", chk.failed)
	}
}

func TestGateCountsDaemonFailureAsFailed(t *testing.T) {
	chk, ts, _ := gateFixture(t)
	chk.check(ts, []outcome{{State: "failed", Failure: "job j-000000 ended failed: boom"}})
	if chk.failed != 1 {
		t.Fatalf("failed %d, want 1", chk.failed)
	}
}

func TestRepeatMustMatchFirstRecord(t *testing.T) {
	chk, ts, orig := gateFixture(t)
	chk.check(ts, []outcome{{Final: orig.Clone(), Error: 0, Stop: "bounded"}})
	chk.check(ts, []outcome{{Final: orig.Clone(), Error: 0, Stop: "bounded"}})
	if chk.failed != 0 {
		t.Fatalf("identical repeat failed: %v", chk.errs)
	}
	// A repeat is compared by record, not re-gated: a different circuit
	// fails even with its error reported truthfully.
	other := orig.Clone()
	other.SetPO(0, accals.ConstFalse)
	e := accals.Error(orig, other, accals.ER, 512, ts[0].Seed)
	chk.check(ts, []outcome{{Final: other, Error: e, Stop: "bounded"}})
	if chk.failed != 1 || chk.checked != 3 {
		t.Fatalf("failed %d of %d, want 1 of 3", chk.failed, chk.checked)
	}
}

func TestProgramSeedIsPositiveAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(-2); s < 50; s++ {
		for set := 0; set < 8; set++ {
			for j := 0; j < 5; j++ {
				v := programSeed(s, set, j)
				if v <= 0 {
					t.Fatalf("programSeed(%d, %d, %d) = %d, want positive", s, set, j, v)
				}
				seen[v] = true
			}
		}
	}
	if len(seen) != 52*8*5 {
		t.Fatalf("%d distinct program seeds of %d", len(seen), 52*8*5)
	}
}
