package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/faultinject"
	"accals/internal/obs"
)

// TestChaos is the end-to-end fault harness: hundreds of small jobs
// submitted concurrently against a manager with every fault point
// armed (torn journal appends, failed result writes, skipped and
// corrupted checkpoints, hung rounds for the watchdog, in-run
// panics), a mid-stream Kill() emulating SIGKILL, and a recovery
// manager over the same directory. It asserts the crash-safety
// contract:
//
//   - every accepted job ends terminal (done, failed, or cancelled);
//   - every done job with a deterministic stop reason produces a
//     final circuit byte-identical to an uninterrupted clean run of
//     the same spec — including jobs resumed from checkpoints;
//   - the goroutine count returns to its pre-test baseline.
//
// The run is seed-driven (CHAOS_SEED) and the job count scales with
// CHAOS_JOBS; defaults are the CI smoke configuration.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	seed := int64(20230745)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		seed = n
	}
	numJobs := 200
	if v := os.Getenv("CHAOS_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_JOBS: %v", err)
		}
		numJobs = n
	}

	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	inj := faultinject.New(seed)
	inj.Set(FaultJournalWrite, faultinject.Rule{Prob: 0.02})
	inj.Set(FaultResultWrite, faultinject.Rule{Prob: 0.05})
	inj.Set(FaultCkptWrite, faultinject.Rule{Prob: 0.05})
	inj.Set(FaultCkptCorrupt, faultinject.Rule{Prob: 0.05, TruncateFrac: 0.5})
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 0.03, Delay: time.Minute})
	inj.Set(FaultJobPanic, faultinject.Rule{Prob: 0.05, Panic: true})

	cfg := Config{
		Dir:             dir,
		MaxRunning:      8,
		MaxQueue:        numJobs + 16,
		CheckpointEvery: 1,
		Watchdog:        400 * time.Millisecond,
		Inj:             inj,
		Metrics:         obs.NewRegistry(),
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	circuits := []string{"alu4", "cla32", "c1908", "rca32"}
	specFor := func(i int) JobSpec {
		return JobSpec{
			Tenant:    fmt.Sprintf("t%d", i%7),
			Circuit:   circuits[i%len(circuits)],
			Metric:    "er",
			Bound:     0.05,
			Patterns:  128 + 64*(i%3),
			Seed:      seed + int64(i),
			MaxRounds: 2 + i%4,
		}
	}

	// Phase 1: submit everything. Torn journal appends reject some
	// submissions with ErrDisk — those jobs were never accepted and
	// are exactly the ones the contract excludes.
	accepted := make(map[string]JobSpec)
	rejected := 0
	for i := 0; i < numJobs; i++ {
		j, err := m.Submit(specFor(i))
		switch {
		case err == nil:
			accepted[j.ID] = specFor(i)
		case errors.Is(err, ErrDisk):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	t.Logf("accepted %d jobs, %d rejected by injected journal faults", len(accepted), rejected)
	if len(accepted) < numJobs/2 {
		t.Fatalf("only %d/%d jobs accepted; injection rates are off", len(accepted), numJobs)
	}

	// Cancel a deterministic handful while the fleet runs.
	cancelled := 0
	for id := range accepted {
		if strings.HasSuffix(id, "3") && cancelled < 10 {
			if _, err := m.Cancel(id); err == nil {
				cancelled++
			}
		}
	}

	// Let the fleet make progress, then pull the plug mid-stream. The
	// trigger is progress-based (a third of the fleet done), not
	// wall-clock, so the fault points see a comparable number of draws
	// whether or not the build is instrumented (-race runs ~5x slower).
	killAt := time.Now().Add(60 * time.Second)
	for m.Stats().Done < numJobs/2 && time.Now().Before(killAt) {
		time.Sleep(10 * time.Millisecond)
	}
	// One extra beat so at least one tripped watchdog reaches its
	// terminal record before the plug is pulled.
	time.Sleep(600 * time.Millisecond)
	// Pull it while running jobs have usable checkpoints and rounds
	// left, so that the recovery below has resumes to perform: a kill
	// that only catches jobs before their first snapshot, or about to
	// finish, would leave the resume path untested.
	for resumableRunning(m) < 2 && time.Now().Before(killAt) {
		time.Sleep(time.Millisecond)
	}

	// Mid-run observability: under full chaos load the scrape must
	// still export the complete admission story. The submission phase
	// is over, so those counters are exact even while the fleet churns.
	midSnap := m.Metrics().CounterSnapshot()
	if v := sumCounters(midSnap, "accalsd_jobs_total", `event="submitted"`); v != float64(len(accepted)) {
		t.Errorf("mid-run submitted counter %v, want %d", v, len(accepted))
	}
	if v := sumCounters(midSnap, "accalsd_admission_rejections_total", `reason="disk"`); v != float64(rejected) {
		t.Errorf("mid-run disk rejections %v, want %d", v, rejected)
	}
	midText := scrapeRegistry(t, m.Metrics())
	for _, fam := range []string{
		"accalsd_queue_depth", "accalsd_jobs_running",
		"accalsd_journal_append_seconds", "accalsd_checkpoint_total",
		"accalsd_watchdog_fires_total",
	} {
		if !strings.Contains(midText, "# TYPE "+fam+" ") {
			t.Errorf("mid-run scrape misses family %s", fam)
		}
	}

	preKill := m.Stats()
	m.Kill()
	t.Logf("killed with %d running / %d queued / %d done", preKill.Running, preKill.Queued, preKill.Done)
	if preKill.Done == 0 {
		t.Error("kill fired before any job finished; lengthen the pre-kill window")
	}

	// Phase 2: recover over the same directory with a clean injector
	// so the fleet converges. Recovery must resume every job the
	// journal calls non-terminal.
	// A fresh registry: the conservation law below is a per-manager-
	// lifetime invariant (recovered jobs are re-admitted), so sharing
	// the killed manager's registry would double-count them.
	// Its injector stays disarmed until the fleet has converged; then
	// it hangs one round for this manager's own watchdog to catch.
	inj2 := faultinject.New(seed)
	m2, err := Open(Config{
		Dir:             dir,
		MaxRunning:      8,
		MaxQueue:        numJobs + 16,
		CheckpointEvery: 1,
		Watchdog:        2 * time.Second,
		Inj:             inj2,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	jobs := m2.List()
	if len(jobs) != len(accepted) {
		t.Fatalf("recovered %d jobs, accepted %d", len(jobs), len(accepted))
	}
	recovered := 0
	for _, j := range jobs {
		if j.Recovered {
			recovered++
		}
	}
	t.Logf("recovery requeued %d interrupted jobs", recovered)
	if recovered == 0 {
		t.Error("kill interrupted no jobs; the chaos window is too late")
	}

	// Drain to completion: every accepted job must reach a terminal
	// state.
	deadline := time.Now().Add(4 * time.Minute)
	for {
		st := m2.Stats()
		if st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	counts := map[JobState]int{}
	resumed := 0
	for _, j := range m2.List() {
		if !j.State.Terminal() {
			t.Errorf("job %s not terminal: %s", j.ID, j.State)
		}
		counts[j.State]++
		if j.State == StateDone {
			if res, err := m2.Result(j.ID); err != nil {
				t.Errorf("done job %s has no readable result: %v", j.ID, err)
			} else if res.Resumed {
				resumed++
			}
		}
		if j.State == StateFailed && j.FailureKind == "" {
			t.Errorf("failed job %s has no failure kind", j.ID)
		}
	}
	t.Logf("terminal states: %v (%d done jobs resumed from checkpoints)", counts, resumed)
	if counts[StateDone] == 0 {
		t.Fatal("no job finished successfully")
	}
	if resumed == 0 {
		t.Error("no done job resumed from a checkpoint; kill/recovery path untested")
	}

	// Every armed fault point must actually have fired, or the chaos
	// run proved nothing about that path.
	for _, point := range []string{
		FaultJournalWrite, FaultCkptWrite, FaultCkptCorrupt,
		FaultRoundHang, FaultJobPanic,
	} {
		if inj.Fired(point) == 0 {
			t.Errorf("fault point %s never fired (seed %d); census: %s", point, seed, inj)
		}
	}
	t.Logf("watchdog tripped %d hung jobs before the kill", countKind(m2, "hung"))

	// Byte-identity: every done job with a deterministic stop reason
	// must match an uninterrupted clean run of its spec — resumed or
	// not. (Cancelled and deadline-bounded jobs stop at a time-
	// dependent round, so their best-so-far is legitimately partial.)
	checked := 0
	for _, j := range m2.List() {
		if j.State != StateDone || j.StopReason == "deadline-exceeded" {
			continue
		}
		res, err := m2.Result(j.ID)
		if err != nil {
			t.Errorf("result %s: %v", j.ID, err)
			continue
		}
		spec := accepted[j.ID]
		sess, err := newSession(spec, cfg.DefaultWorkers, 0)
		if err != nil {
			t.Fatalf("comparator options %s: %v", j.ID, err)
		}
		clean := sess.Run(context.Background())
		var sb strings.Builder
		if err := blif.Write(&sb, clean.Final); err != nil {
			t.Fatal(err)
		}
		if sb.String() != res.BLIF {
			t.Errorf("job %s (%s, resumed=%v): result diverges from clean run",
				j.ID, spec.Circuit, res.Resumed)
		}
		checked++
	}
	t.Logf("byte-identity verified for %d done jobs", checked)
	if checked == 0 {
		t.Fatal("byte-identity check covered no jobs")
	}

	// A hang before the kill may be cut short by the kill rather than
	// caught by a watchdog, so the watchdog is proved on the recovered
	// manager: one fresh job whose first round hangs must be tripped
	// by m2's own watchdog.
	inj2.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Count: 1, Delay: time.Minute})
	hj, err := m2.Submit(specFor(numJobs))
	if err != nil {
		t.Fatalf("submit the hang probe: %v", err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		if j, err := m2.Get(hj.ID); err == nil && j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hang probe %s never went terminal", hj.ID)
		}
	}
	fires := sumCounters(m2.Metrics().CounterSnapshot(), "accalsd_watchdog_fires_total")
	if hung := countKind(m2, "hung"); inj2.Fired(FaultRoundHang) > 0 && (hung == 0 || fires == 0) {
		t.Error("rounds hung but the watchdog tripped no job")
	} else {
		t.Logf("recovered manager's watchdog fired %v times", fires)
	}
	if j, err := m2.Get(hj.ID); err != nil || j.State != StateFailed || j.FailureKind != "hung" {
		t.Errorf("hang probe ended %+v (%v), want failed by the watchdog", j, err)
	}

	// Metrics conservation at quiesce: every admission this lifetime
	// (the recoveries and the hang probe) is accounted for by a
	// terminal counter, and SSE drops cannot exceed subscriptions. The chaos fleet is the adversarial witness: missed
	// instrumentation on any lifecycle edge (panic, watchdog, cancel,
	// resume) breaks the equation.
	recSnap := m2.Metrics().CounterSnapshot()
	if v := sumCounters(recSnap, "accalsd_jobs_total", `event="recovered"`); v != float64(recovered) {
		t.Errorf("recovered counter %v, want %d", v, recovered)
	}
	assertMetricsConservation(t, m2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m2.Close(ctx); err != nil {
		t.Fatalf("final close: %v", err)
	}

	// Goroutine hygiene: after both managers are down the count must
	// return to the pre-test baseline.
	hygiene := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(hygiene) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// resumableRunning counts the running jobs of m that have a snapshot a
// recovery could resume from and at least two rounds left to run.
func resumableRunning(m *Manager) int {
	n := 0
	for _, j := range m.List() {
		if j.State != StateRunning || j.Round+2 > j.Spec.MaxRounds {
			continue
		}
		if _, err := checkpoint.Latest(m.store.ckptDir(j.ID)); err == nil {
			n++
		}
	}
	return n
}

func countKind(m *Manager, kind string) int {
	n := 0
	for _, j := range m.List() {
		if j.State == StateFailed && j.FailureKind == kind {
			n++
		}
	}
	return n
}
