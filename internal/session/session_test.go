package session

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/obs"
)

// fakeStore is a save step that records the snapshots it is given.
type fakeStore struct {
	dir   string
	every int
	saved []*checkpoint.Snapshot
}

func (f *fakeStore) Dir() string        { return f.dir }
func (f *fakeStore) Due(round int) bool { return (round+1)%f.every == 0 }
func (f *fakeStore) Save(s *checkpoint.Snapshot) error {
	f.saved = append(f.saved, s)
	return nil
}

func (f *fakeStore) rounds() []int {
	var r []int
	for _, s := range f.saved {
		r = append(r, s.Round)
	}
	return r
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mtp8 is the configuration the command-level resume tests use: a
// bounded ER run of a few rounds.
func mtp8(t *testing.T, store Checkpoints) *Session {
	t.Helper()
	g, err := circuits.ByName("mtp8")
	if err != nil {
		t.Fatal(err)
	}
	return &Session{
		Graph:      g,
		Metric:     errmetric.ER,
		MetricName: "er",
		Bound:      0.05,
		Method:     "accals",
		Options: core.Options{
			NumPatterns: 512,
			PatternSeed: 7, HasPatternSeed: true,
			Params:   core.Params{Seed: 7, HasSeed: true},
			Workers:  1,
			Recorder: obs.NewRecorder(),
		},
		Checkpoints: store,
		Warn:        func(err error) { t.Errorf("unexpected warning: %v", err) },
	}
}

func TestRoundSnapshotsOnlyAdoptableRounds(t *testing.T) {
	store := &fakeStore{every: 1}
	s := mtp8(t, store)
	g := s.Graph
	s.round(core.RoundStats{Round: 0, Error: 0.01, Graph: g})
	s.round(core.RoundStats{Round: 1, Error: 0.06, Graph: g})                                 // over the bound
	s.round(core.RoundStats{Round: 2, Error: 0.02, Graph: g, CertRan: true})                  // failed certification
	s.round(core.RoundStats{Round: 3, Error: 0.02, Graph: g, CertRan: true, Certified: true}) // certified
	s.round(core.RoundStats{Round: 4, Error: 0.02})                                           // no graph
	if got := store.rounds(); !equalInts(got, []int{0, 3}) {
		t.Fatalf("snapshotted rounds %v, want [0 3]", got)
	}
	if s.lastAccepted.Round != 3 {
		t.Fatalf("last adoptable round %d, want 3", s.lastAccepted.Round)
	}
	// A run with a recorder snapshots its counters, bundle or not.
	for _, snap := range store.saved {
		if snap.Metrics == nil {
			t.Errorf("round %d snapshot carries no counters", snap.Round)
		}
		if snap.Seed != 7 || !snap.HasSeed || snap.Metric != "er" || snap.Bound != 0.05 || snap.Method != "accals" {
			t.Errorf("round %d snapshot identity wrong: %+v", snap.Round, snap)
		}
	}

	store = &fakeStore{every: 1}
	s = mtp8(t, store)
	s.Options.Recorder = nil
	s.round(core.RoundStats{Round: 0, Error: 0.01, Graph: g})
	if store.saved[0].Metrics != nil {
		t.Error("a run without a recorder snapshotted counters")
	}
}

func TestRoundCadence(t *testing.T) {
	store := &fakeStore{every: 3}
	s := mtp8(t, store)
	for r := 0; r < 8; r++ {
		s.round(core.RoundStats{Round: r, Error: 0.01, Graph: s.Graph})
	}
	if got := store.rounds(); !equalInts(got, []int{2, 5}) {
		t.Fatalf("snapshotted rounds %v, want [2 5]", got)
	}
}

// interruptAfter cancels the run once round n has been reported.
func interruptAfter(s *Session, n int) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	s.Options.Progress = func(rs core.RoundStats) {
		if rs.Round >= n {
			cancel()
		}
	}
	return ctx
}

func TestRunInterruptSavesOffCadenceSnapshot(t *testing.T) {
	store := &fakeStore{every: 1000}
	s := mtp8(t, store)
	res := s.Run(interruptAfter(s, 1))
	if !res.StopReason.Interrupted() {
		t.Fatalf("run stopped %v, want an interrupt", res.StopReason)
	}
	final := s.FinalSnapshot()
	if final == nil || !equalInts(store.rounds(), []int{final.Round}) {
		t.Fatalf("saved %v, final snapshot %+v; want exactly the final one", store.rounds(), final)
	}
	if final.Round != s.lastAccepted.Round || final.Error > s.Bound {
		t.Fatalf("final snapshot round %d error %g, want the last adoptable round %d",
			final.Round, final.Error, s.lastAccepted.Round)
	}
}

func TestRunInterruptSkipsSnapshotThatAddsNoRounds(t *testing.T) {
	store := &fakeStore{every: 1}
	s := mtp8(t, store)
	res := s.Run(interruptAfter(s, 1))
	if !res.StopReason.Interrupted() {
		t.Fatalf("run stopped %v, want an interrupt", res.StopReason)
	}
	if s.FinalSnapshot() != nil {
		t.Fatal("final snapshot taken although the cadence already saved the last round")
	}
	got := store.rounds()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("snapshot rounds %v repeat a round", got)
		}
	}
}

func TestRunCompletedTakesNoFinalSnapshot(t *testing.T) {
	store := &fakeStore{every: 1000}
	s := mtp8(t, store)
	if res := s.Run(context.Background()); res.StopReason.Interrupted() {
		t.Fatalf("run stopped %v", res.StopReason)
	}
	if len(store.saved) != 0 || s.FinalSnapshot() != nil {
		t.Fatalf("uninterrupted run saved %v off the cadence", store.rounds())
	}
}

// saveSnapshot writes one snapshot of g for resume tests.
func saveSnapshot(t *testing.T, dir string, snap checkpoint.Snapshot) {
	t.Helper()
	g, err := circuits.ByName("mtp8")
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.SetGraph(g); err != nil {
		t.Fatal(err)
	}
	w, err := checkpoint.NewWriter(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(&snap); err != nil {
		t.Fatal(err)
	}
}

func TestResumeAdoptsSeedStartAndCounters(t *testing.T) {
	dir := t.TempDir()
	saveSnapshot(t, dir, checkpoint.Snapshot{
		Round: 4, Error: 0.01, Seed: 42, HasSeed: true,
		Metric: "er", Bound: 0.05, Method: "accals",
		Metrics: map[string]float64{"accals_rounds_total": 5},
	})
	s := mtp8(t, &fakeStore{dir: dir, every: 1})
	s.Options.Params = core.Params{Seed: 1} // no explicit seed
	s.Options.PatternSeed, s.Options.HasPatternSeed = 1, false
	if _, err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	o := s.Options
	if o.Params.Seed != 42 || !o.Params.HasSeed || o.PatternSeed != 42 || !o.HasPatternSeed {
		t.Errorf("seeds not adopted: params %+v, pattern seed %d/%v", o.Params, o.PatternSeed, o.HasPatternSeed)
	}
	if o.Start == nil || o.Start.Round != 5 {
		t.Errorf("start state %+v, want round 5", o.Start)
	}
	if got := o.Recorder.Registry().CounterSnapshot()["accals_rounds_total"]; got != 5 {
		t.Errorf("restored round counter %v, want 5", got)
	}
}

func TestResumeRejectsOtherRuns(t *testing.T) {
	snap := checkpoint.Snapshot{Round: 2, Seed: 7, HasSeed: true, Metric: "er", Bound: 0.05, Method: "accals"}
	for _, tc := range []struct {
		name string
		edit func(*Session)
		want string
	}{
		{"metric", func(s *Session) { s.Metric, s.MetricName = errmetric.MHD, "mhd" }, "different run"},
		{"bound", func(s *Session) { s.Bound = 0.1 }, "different run"},
		{"method", func(s *Session) { s.Method = "seals" }, "different run"},
		{"seed", func(s *Session) { s.Options.Params.Seed = 8 }, "-seed 7, got -seed 8"},
		{"interface", func(s *Session) { s.Graph = circuits.RCA(4) }, "PIs / "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveSnapshot(t, dir, snap)
			s := mtp8(t, &fakeStore{dir: dir, every: 1})
			tc.edit(s)
			if _, err := s.Resume(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resume error %v, want %q", err, tc.want)
			}
			if s.Options.Start != nil {
				t.Error("a refused snapshot was installed as the start state")
			}
		})
	}
	// Without an explicit seed any snapshot seed is adopted.
	dir := t.TempDir()
	saveSnapshot(t, dir, snap)
	s := mtp8(t, &fakeStore{dir: dir, every: 1})
	s.Options.Params = core.Params{Seed: 8}
	if _, err := s.Resume(); err != nil {
		t.Fatalf("unseeded resume refused: %v", err)
	}
}

func TestOpenBundleTruncatesLedgerToSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ledgerBytes int64
	}{
		{"offset", 10},
		{"no offset", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt")
			bundle := filepath.Join(dir, "bundle")
			saveSnapshot(t, ckpt, checkpoint.Snapshot{
				Round: 2, Seed: 7, HasSeed: true, Metric: "er", Bound: 0.05, Method: "accals",
				LedgerBytes: tc.ledgerBytes,
			})
			if err := os.MkdirAll(bundle, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(bundle, ledger.LedgerFile)
			if err := os.WriteFile(path, []byte(strings.Repeat("x", 100)), 0o644); err != nil {
				t.Fatal(err)
			}
			s := mtp8(t, &fakeStore{dir: ckpt, every: 1})
			if _, err := s.Resume(); err != nil {
				t.Fatal(err)
			}
			if err := s.OpenBundle(bundle, []string{"test"}, 0, false); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(nil); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != tc.ledgerBytes {
				t.Fatalf("ledger is %d bytes after resume, want %d", fi.Size(), tc.ledgerBytes)
			}
			man, err := ledger.ReadManifest(filepath.Join(bundle, ledger.ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			if !man.Resumed || man.Patterns != 512 || man.Seed != 7 {
				t.Errorf("manifest %+v, want a resumed 512-pattern seed-7 run", man)
			}
		})
	}
}
