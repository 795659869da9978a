package core

import (
	"cmp"
	"context"
	"time"

	"accals/internal/aig"
	"accals/internal/dispatch"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// Options configures a synthesis run (shared by AccALS and the
// baseline flows).
type Options struct {
	// Params are the AccALS hyper-parameters; zero fields default to
	// the paper's values scaled by circuit size.
	Params Params
	// GenCfg configures candidate LAC generation; zero fields default
	// by circuit size.
	GenCfg lac.Config
	// NumPatterns is the Monte-Carlo sample size used when the
	// circuit has too many inputs for exhaustive simulation.
	// Defaults to DefaultPatterns.
	NumPatterns int
	// PatternSeed seeds the Monte-Carlo pattern generator. A zero seed
	// means "use the default (12345)" unless HasPatternSeed is set.
	PatternSeed int64
	// HasPatternSeed marks PatternSeed as explicit, making a zero
	// pattern seed usable.
	HasPatternSeed bool
	// InputProbs, when non-nil, gives the probability of each primary
	// input being 1, realising a non-uniform input distribution (the
	// paper's flows assume uniform inputs but the framework supports
	// any distribution). Length must match the circuit's input count.
	InputProbs []float64
	// ExactEstimates replaces the fast change-propagation estimator
	// with exact per-candidate cone resimulation (much slower; used
	// by the estimator ablation).
	ExactEstimates bool
	// Progress, when non-nil, receives each round's statistics as the
	// run proceeds. The snapshot is independent of the run's state —
	// the embedded Graph is a deep copy — so the callback may retain
	// or mutate it freely without affecting the synthesis.
	Progress func(RoundStats)
	// Recorder, when non-nil, receives the run's instrumentation:
	// per-phase spans, LAC/guard/duel counters and the live status
	// snapshot served by the introspection server. A nil recorder is
	// a no-op and costs one nil check per instrumentation point.
	Recorder *obs.Recorder
	// Deadline, when non-zero, stops the run at that wall-clock time,
	// returning the best circuit so far with StopReason
	// DeadlineExceeded. Checked once per round.
	Deadline time.Time
	// MaxRuntime, when positive, bounds the run's wall-clock time from
	// its start; like Deadline it returns the best-so-far circuit with
	// StopReason DeadlineExceeded.
	MaxRuntime time.Duration
	// Start, when non-nil, warm-starts the run from a checkpointed
	// state instead of a fresh copy of the original circuit.
	Start *StartState
	// Workers is the parallel evaluation engine's worker budget: 0 (or
	// negative) means one worker per CPU, 1 forces the exact legacy
	// sequential path, any other value is used as-is. Results are
	// bit-identical at every setting — sharding boundaries are fixed
	// and merges use exactly associative operations — so Workers only
	// trades wall-clock time for cores.
	Workers int
	// Evaluators, when non-nil, farms candidate estimation out to the
	// pool's external evaluator processes (accals -serve-eval),
	// splitting each batch into per-evaluator slices plus a local
	// share. Results are bit-identical to local evaluation and any
	// transport failure falls back to it, so the pool only ever changes
	// where the work runs.
	Evaluators *dispatch.Pool
	// CertBudget caps the CDCL conflicts each SAT certification may
	// spend under the MaxED metric: 0 means DefaultCertBudget, a
	// negative value means unlimited. A round whose certification
	// exhausts the budget is rejected and the run stops with
	// StopReason Uncertified — budget exhaustion is never acceptance.
	// Ignored by the statistical metrics.
	CertBudget int64
}

// DefaultCertBudget is the per-round conflict budget of MaxED SAT
// certification when Options.CertBudget is zero.
const DefaultCertBudget = 1 << 20

// StartState warm-starts a run from a previously checkpointed circuit
// (see internal/checkpoint). The graph must have the same PI/PO
// interface as the original; its error is re-measured against the
// reference comparator, so the pattern configuration should match the
// interrupted run's for the resumed trajectory to be meaningful.
type StartState struct {
	// Graph is the approximate circuit to resume from.
	Graph *aig.Graph
	// Round is the round number the resumed run starts at (one past
	// the checkpointed round).
	Round int
}

// DefaultPatterns is the default Monte-Carlo sample size.
const DefaultPatterns = 2048

// PatternBudget returns the Monte-Carlo pattern budget the run uses:
// NumPatterns, or DefaultPatterns when it is unset.
func (o Options) PatternBudget() int { return cmp.Or(o.NumPatterns, DefaultPatterns) }

// Patterns builds the evaluation pattern set for g under the options:
// exhaustive for small input counts, seeded Monte-Carlo otherwise.
func (o Options) Patterns(g *aig.Graph) *simulate.Patterns {
	n := o.PatternBudget()
	seed := o.PatternSeed
	if seed == 0 && !o.HasPatternSeed {
		seed = 12345
	}
	if o.InputProbs != nil {
		return simulate.Biased(g.NumPIs(), o.InputProbs, n, seed)
	}
	return simulate.NewPatterns(g.NumPIs(), n, seed)
}

// roundSeed derives the per-round RNG seed from the run seed. Deriving
// a fresh generator per round (rather than streaming one generator
// through the whole run) is what makes checkpoint/resume exact: round
// k of a resumed run draws the same random LAC sets as round k of an
// uninterrupted one. The mix is SplitMix64's finalizer.
func roundSeed(seed int64, round int) int64 {
	x := uint64(seed) + uint64(round+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x)
}

// Run synthesises an approximate version of orig whose error under the
// given metric does not exceed errBound, using the AccALS multi-LAC
// selection framework (Algorithm 1).
func Run(orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	return RunCtx(context.Background(), orig, metric, errBound, opt)
}

// RunCtx is Run with a context: cancelling ctx (or passing a context
// with a deadline) stops the run at the next round boundary, returning
// the best circuit accepted so far with StopReason Cancelled or
// DeadlineExceeded.
func RunCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	return runMetric(ctx, accalsFlow, orig, metric, errBound, opt)
}

// RunWithComparatorCtx is RunCtx with a caller-supplied comparator,
// allowing experiments to share the reference simulation across flows.
func RunWithComparatorCtx(ctx context.Context, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt Options, start time.Time) *Result {
	return run(ctx, accalsFlow, orig, cmp, errBound, opt, start)
}

// RunSEALSCtx is RunCtx for the single-selection baseline modelled on
// SEALS (Meng et al., DAC 2022): every round applies only the best
// candidate. It runs the same loop as AccALS, so the two flows share
// generation, estimation, certification and the round tail.
func RunSEALSCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	return runMetric(ctx, sealsFlow, orig, metric, errBound, opt)
}

// RunSEALSWithComparatorCtx is RunSEALSCtx with a caller-supplied
// comparator.
func RunSEALSWithComparatorCtx(ctx context.Context, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt Options, start time.Time) *Result {
	return run(ctx, sealsFlow, orig, cmp, errBound, opt, start)
}

// runMetric builds the comparator for metric over the options' pattern
// set and runs flow f.
func runMetric(ctx context.Context, f flow, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	start := time.Now()
	cmp := errmetric.NewComparator(metric, orig, opt.Patterns(orig))
	return run(ctx, f, orig, cmp, errBound, opt, start)
}

// run is Algorithm 1: each round simulates the accepted circuit,
// generates and estimates candidate LACs, then either applies the
// single best one (every SEALS round, and AccALS's improvement
// technique 1 close to the bound) or selects the top set, its
// conflict-free subset and the independent and random sets, duels
// them and reverts a negative set (technique 2). MaxED rounds are then
// SAT-certified, and one shared tail publishes the round.
func run(ctx context.Context, f flow, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt Options, start time.Time) *Result {
	if start.IsZero() {
		start = time.Now()
	}
	ctl := runctl.NewController(ctx, opt.Deadline, opt.MaxRuntime, start)
	l := newLoop(f, orig, cmp, errBound, opt)
	// Joined on every exit rather than after the loop, so that a
	// panicking Progress callback (recovered by runctl.Guard at the
	// public API boundary) cannot leak the prefetch goroutine and the
	// graph and result it pins.
	defer l.joinPrefetch()

	gNew, e, round0 := orig.Clone(), 0.0, 0
	resumed := opt.Start != nil && opt.Start.Graph != nil
	if resumed {
		gNew = opt.Start.Graph.Clone()
		e = cmp.Error(gNew)
		round0 = opt.Start.Round
	}
	startUncertified := false
	if l.certEnabled && resumed {
		// A checkpoint is not a certificate: the warm-start circuit
		// re-enters the certified-acceptance invariant only through its
		// own proof.
		ok, conflicts := l.certifyCircuit(gNew)
		l.result.CertConflicts += conflicts
		startUncertified = !ok || e > errBound
	}
	l.emitMeta(gNew, round0, resumed)

	g, eG := gNew, e
	reason := runctl.Bounded
	if startUncertified {
		// Reject the unprovable checkpoint outright: the run falls back
		// to the exact circuit (trivially within any bound) and the
		// stop reason tells the caller the resume was not adopted.
		g = orig.Clone()
		eG = cmp.Error(g)
		reason = runctl.Uncertified
	}
	for round := round0; !startUncertified; round++ {
		if e > errBound {
			reason = runctl.Bounded
			break
		}
		// gNew is within the bound: accept it as the new best.
		g, eG = gNew, e
		if round >= l.params.MaxRounds {
			reason = runctl.MaxRounds
			break
		}
		if why, stop := ctl.Stop(); stop {
			reason = why
			break
		}
		r := l.beginRound(round, g, eG)
		if err := l.simulate(r); err != nil {
			// Only reachable through a warm start whose interface
			// slipped validation; keep the best accepted circuit.
			r.span.End()
			reason = runctl.Failed
			break
		}
		if !l.generate(r) {
			r.span.End()
			reason = runctl.Stagnated
			break
		}
		l.estimate(r)
		if l.single || l.nearBound(r) {
			l.singleLAC(r)
		} else {
			l.selectSets(r)
			l.duel(r)
			l.revertNegative(r)
		}
		l.certify(r)
		if why, stop := l.finishRound(r); stop {
			reason = why
			break
		}
		gNew, e = r.gNew, r.e
	}
	return l.finish(g, eG, reason, round0, start)
}
