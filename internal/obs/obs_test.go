package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Every method must be callable on a nil recorder.
	r.SetRunInfo("accals", "mtp8", "er", 0.05, 100)
	r.BeginRound(1)
	sp := r.StartPhase(1, PhaseSimulate)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	r.StartSpan(PhaseEstimate).End()
	r.CountCandidates(10)
	r.CountApplied(3)
	r.CountReverted(1)
	r.GuardSingleLAC()
	r.GuardNegativeRevert()
	r.DuelOutcome(true)
	r.CountSimPatterns(1024)
	r.AddSATConflicts(5)
	r.CountEvaluation()
	r.SetWorkers(4)
	r.ObserveShards(PhaseSimulate, time.Millisecond, []time.Duration{time.Millisecond})
	r.EndRound(1, 0.01, 90, 0, 3)
	r.AddTracer(nil)
	r.Finish("bounded")
	if s := r.Status(); s.Running {
		t.Fatal("nil recorder status should be zero")
	}
	if reg := r.Registry(); reg != nil {
		t.Fatal("nil recorder registry should be nil")
	}
	if s := r.Summary(); s.Rounds != 0 {
		t.Fatal("nil recorder summary should be zero")
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"simulate", "generate", "estimate", "conflict-graph",
		"mis", "apply", "measure", "revert", "cec", "round"}
	ps := Phases()
	if len(ps) != len(want) {
		t.Fatalf("got %d phases, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p, want[i])
		}
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase should stringify as unknown")
	}
}

func TestRecorderRoundLifecycle(t *testing.T) {
	r := NewRecorder()
	r.SetRunInfo("accals", "mtp8", "er", 0.05, 337)
	r.BeginRound(0)
	r.StartSpan(PhaseSimulate).End()
	r.CountCandidates(50)
	r.CountApplied(4)
	r.DuelOutcome(true)
	r.EndRound(0, 0.001, 330, 0, 4)
	r.BeginRound(1)
	r.GuardSingleLAC()
	r.CountApplied(1)
	r.EndRound(1, 0.002, 329, 1, 1)

	s := r.Status()
	if !s.Running {
		t.Fatal("run should be live")
	}
	if s.Round != 1 || s.NumAnds != 329 || s.LACsApplied != 5 || s.NoProgress != 1 {
		t.Fatalf("status = %+v", s)
	}
	if s.GuardSingle != 1 || s.DuelIndp != 1 || s.DuelRandom != 0 {
		t.Fatalf("status tallies = %+v", s)
	}
	if s.Method != "accals" || s.Circuit != "mtp8" || s.InitialAnds != 337 {
		t.Fatalf("run info = %+v", s)
	}

	r.Finish("bounded")
	s = r.Status()
	if s.Running || s.StopReason != "bounded" {
		t.Fatalf("finished status = %+v", s)
	}

	sum := r.Summary()
	if sum.Rounds != 2 || sum.LACsEvaluated != 50 || sum.LACsApplied != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.GuardSingleLAC != 1 || sum.DuelIndpWinRate != 1 {
		t.Fatalf("summary guard/duel = %+v", sum)
	}
	if ph, ok := sum.Phases["simulate"]; !ok || ph.Count != 1 {
		t.Fatalf("summary phases = %+v", sum.Phases)
	}
}

func TestWorkersAndShardObservations(t *testing.T) {
	r := NewRecorder()
	r.SetWorkers(4)
	if s := r.Status(); s.Workers != 4 {
		t.Fatalf("status workers = %d, want 4", s.Workers)
	}

	// A region where 2 shards were each busy half the elapsed time has
	// utilization 0.5; one with every shard fully busy has 1.0.
	r.ObserveShards(PhaseSimulate, 10*time.Millisecond,
		[]time.Duration{5 * time.Millisecond, 5 * time.Millisecond})
	r.ObserveShards(PhaseEstimate, 10*time.Millisecond,
		[]time.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	// Empty regions and zero elapsed must be ignored, not divide by zero.
	r.ObserveShards(PhaseSimulate, time.Millisecond, nil)
	r.ObserveShards(PhaseSimulate, 0, []time.Duration{time.Millisecond})

	sum := r.Summary()
	if sum.Workers != 4 {
		t.Fatalf("summary workers = %d, want 4", sum.Workers)
	}
	if sum.WorkerUtilization != 0.75 {
		t.Fatalf("mean utilization = %g, want 0.75", sum.WorkerUtilization)
	}

	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "accals_workers 4") {
		t.Fatalf("workers gauge missing:\n%s", out)
	}
	// 2 + 2 + 1 shard durations were observed (zero-elapsed regions
	// still record per-shard times, only utilization is skipped).
	if !strings.Contains(out, `accals_shard_duration_seconds_count{phase="simulate"} 3`) {
		t.Fatalf("simulate shard durations missing:\n%s", out)
	}
	if !strings.Contains(out, `accals_worker_utilization_count{phase="estimate"} 1`) {
		t.Fatalf("estimate utilization missing:\n%s", out)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRecorder()
	sp := r.StartPhase(3, PhaseMIS)
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration = %v, want >= 1ms", d)
	}
	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `accals_phase_duration_seconds_count{phase="mis"} 1`) {
		t.Fatalf("mis phase not recorded:\n%s", sb.String())
	}
}
