// Package session is the resumable-run protocol the accals command
// and the accalsd daemon share: resume from the latest checkpoint
// snapshot, open the run bundle, snapshot adoptable rounds at the
// checkpoint cadence (plus the last one of an interrupted run), and end
// the run with one summary. Three rules hold for both front ends: a
// snapshot carries the run's counters whenever the run has a recorder;
// a snapshot without a ledger offset cuts the ledger to zero on resume;
// and the summary's runtime is core.Result.Runtime.
package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"accals/internal/aig"
	"accals/internal/checkpoint"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/obs"
)

// Checkpoints is where a session keeps its snapshots: Resume loads
// from Dir, and Save receives the rounds Due selects. The daemon wraps
// a *checkpoint.Writer in fault points and metrics.
type Checkpoints interface {
	Dir() string
	Due(round int) bool
	Save(*checkpoint.Snapshot) error
}

// Session is one resumable synthesis run: set the exported fields, then
// call Resume and OpenBundle (both optional), Run, and Close.
type Session struct {
	Graph *aig.Graph
	// MetricName is Metric as the caller spelled it, recorded in
	// snapshots, manifest and summary.
	Metric     errmetric.Kind
	MetricName string
	Bound      float64
	Method     string // "accals" or "seals"
	// Options are the run's options. Resume adopts the snapshot's
	// seeds and start state into them, and Run calls Options.Progress
	// before its own per-round step.
	Options core.Options
	// Checkpoints receives the run's snapshots; nil disables them.
	Checkpoints Checkpoints
	// Warn reports a snapshot the run went on without; required with
	// Checkpoints.
	Warn func(error)

	resumed      *checkpoint.Snapshot
	bundle       *ledger.Bundle
	tracer       *obs.Tracer
	traceFile    *os.File
	lastAccepted *checkpoint.Snapshot // newest adoptable round
	lastSaved    *checkpoint.Snapshot // newest snapshot on disk
	final        *checkpoint.Snapshot // off-cadence snapshot saved on interrupt
}

// Resume loads the latest valid snapshot, checks it belongs to this
// run (metric, bound, method, an explicit seed, PI/PO counts), and
// installs it as the warm start with its seed and counters, so an
// unseeded resume continues the original trajectory. Call it before
// anything reads the pattern set.
func (s *Session) Resume() (*checkpoint.Snapshot, error) {
	dir := s.Checkpoints.Dir()
	snap, err := checkpoint.Latest(dir)
	if err != nil {
		return nil, err
	}
	if snap.Metric != s.MetricName || snap.Bound != s.Bound || snap.Method != s.Method {
		return nil, fmt.Errorf("snapshot in %s is from a different run (metric %s, bound %g, method %s); rerun with matching flags or a fresh -checkpoint dir",
			dir, snap.Metric, snap.Bound, snap.Method)
	}
	p := &s.Options.Params
	if p.HasSeed && snap.Seed != p.Seed {
		return nil, fmt.Errorf("snapshot in %s was created with -seed %d, got -seed %d; matching seeds are required for an exact resume",
			dir, snap.Seed, p.Seed)
	}
	sg, err := snap.Graph()
	if err != nil {
		return nil, err
	}
	if sg.NumPIs() != s.Graph.NumPIs() || sg.NumPOs() != s.Graph.NumPOs() {
		return nil, fmt.Errorf("snapshot circuit has %d PIs / %d POs but the input has %d / %d; wrong -checkpoint dir for this circuit?",
			sg.NumPIs(), sg.NumPOs(), s.Graph.NumPIs(), s.Graph.NumPOs())
	}
	p.Seed, p.HasSeed = snap.Seed, snap.HasSeed
	s.Options.PatternSeed, s.Options.HasPatternSeed = snap.Seed, snap.HasSeed
	s.Options.Start = &core.StartState{Graph: sg, Round: snap.Round + 1}
	if reg := s.Options.Recorder.Registry(); reg != nil && snap.Metrics != nil {
		reg.RestoreCounters(snap.Metrics)
	}
	s.resumed = snap
	return snap, nil
}

// OpenBundle opens the run bundle in dir, attaches its ledger sink,
// slow-round threshold and (with trace) its own phase trace to the
// recorder, and writes the manifest. After Resume the ledger is cut to
// the snapshot's LedgerBytes, so re-executed rounds appear once. Call
// it after Resume, with Options.Evaluators set. On an error the parts
// opened so far stay attached, and Close releases them.
func (s *Session) OpenBundle(dir string, command []string, slowRound time.Duration, trace bool) error {
	var err error
	if s.resumed != nil {
		s.bundle, err = ledger.Resume(dir, s.resumed.LedgerBytes)
	} else {
		s.bundle, err = ledger.Create(dir)
	}
	if err != nil {
		return err
	}
	rec := s.Options.Recorder
	rec.AddSink(s.bundle.Writer())
	s.bundle.SetSlowRoundThreshold(slowRound)
	var traceErr error
	if trace {
		if s.traceFile, traceErr = os.Create(s.bundle.Path(ledger.TraceFile)); traceErr == nil {
			s.tracer = obs.NewTracer(s.traceFile, obs.TraceJSONL)
			rec.AddTracer(s.tracer)
		}
	}
	m := ledger.Manifest{
		CreatedAt: time.Now(),
		Command:   command,
		Circuit:   s.Graph.Name,
		Method:    s.Method,
		Metric:    s.MetricName,
		Bound:     s.Bound,
		Seed:      s.Options.Params.Seed,
		Patterns:  s.Options.PatternBudget(),
		Workers:   s.Options.Workers,
		TraceID:   rec.TraceID(),
		Resumed:   s.resumed != nil,
	}
	if s.Options.Evaluators != nil {
		m.Evaluators = s.Options.Evaluators.Evaluators()
	}
	m.FillEnvironment()
	return errors.Join(traceErr, s.bundle.WriteManifest(m))
}

// Run executes the synthesis flow named by Method with per-round
// checkpointing. When the run is interrupted (cancelled or out of
// time) it also saves the last adoptable round if the cadence skipped
// it, so a resume loses no completed round.
func (s *Session) Run(ctx context.Context) *core.Result {
	s.Options.Recorder.SetRunInfo(s.Method, s.Graph.Name, s.MetricName, s.Bound, s.Graph.NumAnds())
	opt := s.Options
	progress := opt.Progress
	opt.Progress = func(rs core.RoundStats) {
		if progress != nil {
			progress(rs)
		}
		s.round(rs)
	}
	flow := core.RunCtx
	if s.Method == "seals" {
		flow = core.RunSEALSCtx
	}
	res := flow(ctx, s.Graph, s.Metric, s.Bound, opt)
	if res.StopReason.Interrupted() && s.lastAccepted != s.lastSaved && s.save(s.lastAccepted) {
		s.final = s.lastAccepted
	}
	return res
}

// FinalSnapshot returns the off-cadence snapshot Run saved because the
// run was interrupted, or nil.
func (s *Session) FinalSnapshot() *checkpoint.Snapshot { return s.final }

// round is the session's per-round step. Only adoptable rounds (within
// the bound and, under maxed, certified) are snapshotted, so a resume
// restarts on the trajectory the run was interrupted on. Every such
// round is kept, on the cadence or not, for an interrupt to save.
func (s *Session) round(rs core.RoundStats) {
	if s.bundle != nil {
		s.bundle.ObserveRound(rs.Round, rs.RoundDuration)
	}
	if s.Checkpoints == nil || rs.Graph == nil || !rs.Adoptable(s.Bound) {
		return
	}
	snap := &checkpoint.Snapshot{
		Round:   rs.Round,
		Error:   rs.Error,
		Seed:    s.Options.Params.Seed,
		HasSeed: s.Options.Params.HasSeed,
		Metric:  s.MetricName,
		Bound:   s.Bound,
		Method:  s.Method,
	}
	if reg := s.Options.Recorder.Registry(); reg != nil {
		snap.Metrics = reg.CounterSnapshot()
	}
	if s.bundle != nil {
		snap.LedgerBytes = s.bundle.LedgerSize()
	}
	if err := snap.SetGraph(rs.Graph); err != nil {
		s.Warn(fmt.Errorf("checkpoint round %d: %w", rs.Round, err))
		return
	}
	s.lastAccepted = snap
	if s.Checkpoints.Due(rs.Round) {
		s.save(snap)
	}
}

// save writes snap and reports whether it reached the store.
func (s *Session) save(snap *checkpoint.Snapshot) bool {
	if err := s.Checkpoints.Save(snap); err != nil {
		s.Warn(fmt.Errorf("checkpoint round %d: %w", snap.Round, err))
		return false
	}
	s.lastSaved = snap
	return true
}

// Summary builds the bundle's summary.json (and the accals command's
// -summary output).
func (s *Session) Summary(res *core.Result) ledger.RunSummary {
	return ledger.RunSummary{
		Circuit:        s.Graph.Name,
		Method:         s.Method,
		Metric:         s.MetricName,
		Bound:          s.Bound,
		Error:          res.Error,
		InitialAnds:    s.Graph.NumAnds(),
		FinalAnds:      res.Final.NumAnds(),
		Rounds:         len(res.Rounds),
		LACsApplied:    res.LACsApplied,
		RuntimeSeconds: res.Runtime.Seconds(),
		StopReason:     res.StopReason.String(),
		IndpWinRate:    res.IndpRatio(),
		Obs:            s.Options.Recorder.Summary(),
	}
}

// Close ends the bundle: it writes the summary of res (unless res is
// nil, as after a panic), closes the phase trace and the ledger, and
// returns the first error. Later calls do nothing.
func (s *Session) Close(res *core.Result) error {
	if s.bundle == nil {
		return nil
	}
	var errs []error
	if res != nil {
		errs = append(errs, s.bundle.WriteSummary(s.Summary(res)))
	}
	if s.tracer != nil {
		errs = append(errs, s.tracer.Close(), s.traceFile.Close())
	}
	errs = append(errs, s.bundle.Close())
	s.bundle, s.tracer, s.traceFile = nil, nil, nil
	return errors.Join(errs...)
}
