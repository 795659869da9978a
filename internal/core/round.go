package core

import (
	"math/rand"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/par"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// flow tells the synthesis flows apart on the shared round loop: the
// ledger method name, single selection on every round, the number of
// consecutive no-progress rounds that stops the run, and whether
// Options.Workers overrides GenCfg.Workers.
type flow struct {
	method     string
	single     bool
	stagnation int
	genWorkers bool
}

var (
	accalsFlow = flow{method: "accals", stagnation: StagnationRounds, genWorkers: true}
	// sealsFlow's selection is deterministic, so two no-progress rounds
	// in a row mean convergence. Its generation keeps GenCfg as given:
	// GenCfg.Workers 0 shards over every CPU.
	sealsFlow = flow{method: "seals", single: true, stagnation: 2}
)

// loop is one run's fixed configuration and cross-round state. Its
// methods are the stages of Algorithm 1, called in paper order by run.
type loop struct {
	flow
	opt    Options
	params Params
	genCfg lac.Config
	orig   *aig.Graph
	cmp    *errmetric.Comparator
	bound  float64
	rec    *obs.Recorder

	// The parallel evaluation engine: a sharded simulation runner and
	// a sharded estimator sharing the run's worker budget. Workers: 1
	// is the exact legacy sequential path; any other count produces
	// bit-identical results (fixed shard boundaries, order-free
	// merges), so the trajectory never depends on Workers.
	runner   *simulate.Runner
	est      *estimator.Estimator
	parallel bool
	patCount int

	// led is set when a ledger sink is attached: the run then opens
	// with a RunMeta, every round emits its full decision record, and
	// the trajectory carries mapped area and logic depth. An
	// unledgered run allocates no events and never invokes the
	// technology mapper.
	led bool

	// SAT certification (MaxED only): every accepted circuit must carry
	// a proof that its worst-case error distance stays within the bound
	// on ALL inputs, not just the sampled patterns. The sampled MaxED
	// is a lower bound, so the statistical loop acts as a cheap filter
	// and the certifier has the final word on each round.
	certEnabled bool
	certBound   uint64
	certBudget  int64

	// pend is the prefetched base simulation of the next round's
	// circuit, overlapped with the round tail's bookkeeping (progress
	// clone, checkpointing). The next simulate stage joins it.
	pend *pendingSim
	// noProgress counts consecutive rounds that neither shrank the
	// circuit nor moved the error (the stagnation guard); technique-1
	// rounds leave it untouched.
	noProgress int
	result     *Result
}

// pendingSim is an in-flight prefetched base simulation: the next
// round's circuit simulated on a background goroutine while the main
// loop finishes the current round's bookkeeping. done is closed when
// res/err are ready; the channel close is the happens-before edge that
// hands the runner back to the main loop.
type pendingSim struct {
	g    *aig.Graph
	res  *simulate.Result
	err  error
	done chan struct{}
}

// roundState is one round of Algorithm 1 in flight. g and eG are the
// accepted circuit the round starts from and its error; gNew and e are
// the circuit the round produces and its measured error.
type roundState struct {
	rs    RoundStats
	start time.Time
	span  obs.Span
	g     *aig.Graph
	eG    float64

	simRes       *simulate.Result
	cands        []*lac.LAC
	lIndp, lRand []*lac.LAC
	applied      []*lac.LAC
	gNew         *aig.Graph
	e            float64
}

func newLoop(f flow, orig *aig.Graph, cmp *errmetric.Comparator, bound float64, opt Options) *loop {
	l := &loop{
		flow:     f,
		opt:      opt,
		params:   opt.Params.fillDefaults(orig.NumAnds()),
		genCfg:   opt.GenCfg,
		orig:     orig,
		cmp:      cmp,
		bound:    bound,
		rec:      opt.Recorder,
		runner:   simulate.NewRunner(opt.Workers),
		est:      estimator.New(opt.Workers),
		patCount: cmp.Patterns().NumPatterns(),
		result:   &Result{},
	}
	if f.genWorkers {
		l.genCfg.Workers = opt.Workers
	}
	l.parallel = l.runner.Workers() > 1
	l.rec.SetWorkers(l.runner.Workers())
	l.led = l.rec.Ledgering()
	if cmp.Kind() == errmetric.MaxED {
		l.certEnabled = true
		// Remote evaluators cannot carry certification (and the wire
		// protocol refuses the metric); keep estimation local rather
		// than letting every batch fail over.
		l.opt.Evaluators = nil
		l.certBound = uint64(bound)
		l.certBudget = opt.CertBudget
		if l.certBudget == 0 {
			l.certBudget = DefaultCertBudget
		}
		if l.certBudget < 0 {
			l.certBudget = 0 // unlimited for the solver
		}
	}
	return l
}

// emitMeta opens the ledger with the run's configuration and starting
// circuit.
func (l *loop) emitMeta(g *aig.Graph, round0 int, resumed bool) {
	if !l.led {
		return
	}
	area, _ := mapping.AreaDelay(g)
	l.rec.EmitMeta(obs.RunMeta{
		Method:       l.method,
		Circuit:      l.orig.Name,
		Metric:       strings.ToLower(l.cmp.Kind().String()),
		Bound:        l.bound,
		Seed:         l.params.Seed,
		Patterns:     l.patCount,
		Workers:      l.runner.Workers(),
		InitialAnds:  g.NumAnds(),
		InitialArea:  area,
		InitialDepth: g.Depth(),
		StartRound:   round0,
		Resumed:      resumed,
	})
}

// beginRound opens round's span and state over the accepted circuit g.
func (l *loop) beginRound(round int, g *aig.Graph, eG float64) *roundState {
	start := time.Now()
	l.rec.BeginRound(round)
	return &roundState{
		rs:    RoundStats{Round: round, NumAnds: g.NumAnds()},
		start: start,
		span:  l.rec.StartPhase(round, obs.PhaseRound),
		g:     g,
		eG:    eG,
	}
}

// simulate is the bit-parallel simulation of the round's circuit. It
// adopts the previous round's prefetch when that simulated this
// circuit.
func (l *loop) simulate(r *roundState) error {
	sp := l.rec.StartPhase(r.rs.Round, obs.PhaseSimulate)
	var err error
	if p := l.pend; p != nil {
		<-p.done
		l.pend = nil
		if p.g == r.g {
			r.simRes, err = p.res, p.err
		} else {
			// Defensive: the prefetched circuit is not this round's
			// base; recycle it and simulate the actual one.
			l.runner.Release(p.res)
		}
	}
	if r.simRes == nil && err == nil {
		r.simRes, err = l.runner.RunRec(r.g, l.cmp.Patterns(), l.rec)
	}
	sp.End()
	if err == nil {
		l.rec.CountSimPatterns(l.patCount)
	}
	return err
}

// generate enumerates the round's candidate LACs. It reports false when
// there are none, which stagnates the run.
func (l *loop) generate(r *roundState) bool {
	sp := l.rec.StartPhase(r.rs.Round, obs.PhaseGenerate)
	r.cands = lac.Generate(r.g, r.simRes, l.genCfg)
	sp.End()
	r.rs.Candidates = len(r.cands)
	l.rec.CountCandidates(len(r.cands))
	return len(r.cands) > 0
}

// estimate fills every candidate's ΔE with the configured estimator
// (remote, exact or the change-propagation default).
func (l *loop) estimate(r *roundState) {
	switch {
	case l.opt.Evaluators != nil:
		l.opt.Evaluators.EstimateAll(l.est, r.g, r.simRes, l.cmp, r.cands, l.opt.ExactEstimates, l.rec)
	case l.opt.ExactEstimates:
		l.est.EstimateAllExactRec(r.g, r.simRes, l.cmp, r.cands, l.rec)
	default:
		l.est.EstimateAllRec(r.g, r.simRes, l.cmp, r.cands, l.rec)
	}
}

// nearBound reports whether improvement technique 1 applies: the
// accepted error already exceeds l_e · e_b.
func (l *loop) nearBound(r *roundState) bool {
	return r.eG > l.params.LE*l.bound && !l.params.DisableImprovements
}

// singleLAC applies only the best candidate: on every SEALS round, and
// as AccALS's improvement technique 1 once close to the error bound.
func (l *loop) singleLAC(r *roundState) {
	if !l.single {
		l.rec.GuardSingleLAC()
		r.rs.GuardSingle = true
	}
	r.applied = []*lac.LAC{bestLAC(r.cands)}
	l.apply(r)
	r.e = l.measure(r, r.applied)
	r.rs.EstimatedErr = estimatedError(r.eG, r.applied)
}

// selectSets builds the round's two candidate sets: the Eq. (2) top
// set and its conflict-free subset L_sol (Sections II-B, II-C), then
// the MIS-based independent set (II-D) and the seeded random set. It
// sorts the candidates by ΔE first.
func (l *loop) selectSets(r *roundState) {
	round := r.rs.Round
	r.rs.MultiRound = true
	sortByDeltaE(r.cands)
	sp := l.rec.StartPhase(round, obs.PhaseConflictGraph)
	lTop := obtainTopSet(r.cands, r.eG, l.bound, l.params.RRef)
	r.rs.TopSize = len(lTop)
	lSol, _, confEdges := findSolveLACConf(lTop)
	sp.End()
	r.rs.ConflictEdges = confEdges
	r.rs.SolSize = len(lSol)
	if !l.params.DisableIndp {
		sp = l.rec.StartPhase(round, obs.PhaseMIS)
		var ist indpStats
		r.lIndp, ist = selectIndpLACs(lSol, newInfluenceIndex(r.g), r.eG, l.bound, l.params)
		r.rs.InflPairs, r.rs.InflAbove, r.rs.MISSize = ist.pairs, ist.above, ist.misSize
		sp.End()
	}
	if !l.params.DisableRandom {
		rng := rand.New(rand.NewSource(roundSeed(l.params.Seed, round)))
		r.lRand = selectRandomLACs(lSol, r.eG, l.bound, l.params, rng)
	}
	if r.lIndp == nil && r.lRand == nil {
		// Both sets ablated away: degenerate to single selection.
		r.lRand = lSol[:1]
	}
	r.rs.IndpSize = len(r.lIndp)
	r.rs.RandSize = len(r.lRand)
}

// duel measures the candidate sets and applies the better one. With
// both sets present they are measured concurrently on the shared base
// simulation; only the winner's circuit is built, because measurement
// needs the output vectors, not the rewritten graph.
func (l *loop) duel(r *roundState) {
	switch {
	case r.lIndp == nil:
		r.applied = r.lRand
		r.e = l.measure(r, r.applied)
	case r.lRand == nil:
		r.applied = r.lIndp
		r.e = l.measure(r, r.applied)
		r.rs.PickedIndp = true
	default:
		var e1, e2 float64
		par.Do(l.parallel,
			func() { e1 = l.measure(r, r.lIndp) },
			func() { e2 = l.measure(r, r.lRand) },
		)
		r.rs.HasDuel = true
		r.rs.DuelIndpErr, r.rs.DuelRandErr = e1, e2
		if e1 < e2 || (e1 == e2 && len(r.lIndp) >= len(r.lRand)) {
			r.e, r.applied = e1, r.lIndp
			r.rs.PickedIndp = true
		} else {
			r.e, r.applied = e2, r.lRand
		}
		l.rec.DuelOutcome(r.rs.PickedIndp)
	}
	l.apply(r)
	r.rs.EstimatedErr = estimatedError(r.eG, r.applied)
}

// revertNegative is improvement technique 2: a set whose actual error
// exceeds its estimate by a relative gap beta > l_d is negative, and
// the round is redone with the single best LAC. The same fallback
// fires when a multi-LAC set overshoots the error bound outright —
// terminating there would strand the remaining error budget on
// coarse-grained candidates.
func (l *loop) revertNegative(r *roundState) {
	negative := r.e > 0 && !l.params.DisableImprovements &&
		((r.e-r.rs.EstimatedErr)/r.e > l.params.LD || (r.e > l.bound && len(r.applied) > 1))
	if !negative {
		return
	}
	l.rec.GuardNegativeRevert()
	l.rec.CountReverted(len(r.applied))
	r.rs.Reverted = true
	sp := l.rec.StartPhase(r.rs.Round, obs.PhaseRevert)
	r.applied = r.cands[:1]
	r.gNew = lac.Apply(r.g, r.applied)
	r.e = l.cmp.ErrorFromPOs(estimator.ResimulateWithSet(r.g, r.simRes, r.applied))
	sp.End()
	l.rec.CountSimPatterns(l.patCount)
}

// certify runs the MaxED SAT proof on the circuit the round would
// adopt. The statistical measurement is a lower bound over sampled
// patterns; only a proof over the error miter admits the round.
func (l *loop) certify(r *roundState) {
	if l.certEnabled && r.e <= l.bound {
		r.rs.CertRan = true
		r.rs.Certified, r.rs.CertConflicts = l.certifyCircuit(r.gNew)
		l.result.CertConflicts += r.rs.CertConflicts
	}
}

// certifyCircuit runs one SAT certification of g against the exact
// circuit and feeds the outcome counter. Any constructive error (the
// interfaces were validated at run entry, so none is expected) is
// treated as not-certified rather than silently accepted.
func (l *loop) certifyCircuit(g *aig.Graph) (bool, int64) {
	cert, err := maxerr.CertifyRec(g, l.orig, l.certBound, l.certBudget, l.rec)
	if err != nil {
		l.rec.CountCert(obs.CertBudget)
		return false, 0
	}
	switch {
	case cert.Certified:
		l.rec.CountCert(obs.CertCertified)
	case cert.Exceeded:
		l.rec.CountCert(obs.CertRefuted)
	default:
		l.rec.CountCert(obs.CertBudget)
	}
	return cert.Certified, cert.Conflicts
}

// finishRound is the round tail every round shape shares: the
// stagnation counter, the ledger's per-LAC measurements, the next
// round's simulation prefetch and the publication of the round's
// statistics. It reports whether the run stops after this round, and
// why.
func (l *loop) finishRound(r *roundState) (runctl.StopReason, bool) {
	round := r.rs.Round
	// Stagnation guard: optimistic gain estimates can produce rounds
	// that neither shrink the circuit nor move the error; a few such
	// rounds in a row means convergence. The counter is updated before
	// the stats are published so RoundStats.NoProgress explains an
	// upcoming Stagnated stop. A technique-1 round leaves the counter
	// untouched: it neither advances nor resets a stagnation streak.
	// Changing that would move trajectories. SEALS rounds are not
	// technique-1 rounds and do update it.
	if !r.rs.GuardSingle {
		if r.gNew.NumAnds() >= r.g.NumAnds() && r.e <= r.eG {
			l.noProgress++
		} else {
			l.noProgress = 0
		}
	}
	// MeasureEach is not phase-histogram work, but it is wall-clock the
	// merged timeline must account for: a trace-only span (gated by
	// Tracing, so an untraced run pays nothing) keeps `report
	// -timeline`'s unattributed remainder honest.
	var measured []float64
	if l.led {
		tracing := l.rec.Tracing()
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		measured = l.est.MeasureEach(r.g, r.simRes, l.cmp, r.applied, l.rec)
		if tracing {
			l.rec.EmitEvent(obs.TraceEvent{Name: "measure-each", Round: round, Start: t0, Dur: time.Since(t0)})
		}
	}
	l.runner.Release(r.simRes)
	l.startPrefetch(r)

	rs := r.rs
	rs.NoProgress = l.noProgress
	rs.AppliedLACs = len(r.applied)
	rs.Error = r.e
	rs.RoundDuration = time.Since(r.start)
	r.span.End()
	l.result.Rounds = append(l.result.Rounds, rs)
	l.result.LACsApplied += len(r.applied)
	l.rec.CountApplied(len(r.applied))
	l.rec.EndRound(round, r.e, r.gNew.NumAnds(), l.noProgress, len(r.applied))
	if l.led {
		l.rec.EmitRound(ledgerRound(rs, r.gNew, l.bound-r.eG, r.applied, measured))
	}
	emitProgress(l.opt.Progress, rs, r.gNew)
	switch {
	case rs.CertRan && !rs.Certified:
		// The sampled error passed but the SAT proof did not (bound
		// refuted on an unsampled input, or the conflict budget ran
		// out): reject the round, keep the last certified circuit.
		return runctl.Uncertified, true
	case l.noProgress >= l.stagnation:
		return runctl.Stagnated, true
	}
	return runctl.Bounded, false
}

// startPrefetch simulates the round's circuit on a background goroutine
// when a next round will run on it and there are cores to overlap.
func (l *loop) startPrefetch(r *roundState) {
	if !l.parallel || r.e > l.bound || r.rs.Round+1 >= l.params.MaxRounds || l.noProgress >= l.stagnation {
		return
	}
	p := &pendingSim{g: r.gNew, done: make(chan struct{})}
	l.pend = p
	go func() {
		p.res, p.err = l.runner.Run(p.g, l.cmp.Patterns())
		close(p.done)
	}()
}

// joinPrefetch waits for an in-flight prefetch and recycles its result.
func (l *loop) joinPrefetch() {
	if l.pend != nil {
		<-l.pend.done
		l.runner.Release(l.pend.res)
		l.pend = nil
	}
}

// finish assembles the run's result and closes the ledger.
func (l *loop) finish(g *aig.Graph, eG float64, reason runctl.StopReason, round0 int, start time.Time) *Result {
	res := l.result
	res.Final = g
	res.Error = eG
	res.StopReason = reason
	// Under MaxED every adopted circuit either carried its own SAT
	// proof or is a copy of the exact circuit (zero error on all
	// inputs), so the final result is certified by construction.
	res.Certified = l.certEnabled
	res.Runtime = time.Since(start)
	if l.led {
		area, _ := mapping.AreaDelay(g)
		l.rec.EmitFinish(obs.RunFinish{
			StopReason:  reason.String(),
			Rounds:      round0 + len(res.Rounds),
			Error:       eG,
			NumAnds:     g.NumAnds(),
			Area:        area,
			Depth:       g.Depth(),
			LACsApplied: res.LACsApplied,
			RuntimeUS:   res.Runtime.Microseconds(),
		})
	}
	l.rec.Finish(reason.String())
	return res
}

// apply builds the round's circuit from its applied set.
func (l *loop) apply(r *roundState) {
	sp := l.rec.StartPhase(r.rs.Round, obs.PhaseApply)
	r.gNew = lac.Apply(r.g, r.applied)
	sp.End()
}

// measure evaluates a candidate LAC set's true error under the
// measure-phase span. Rather than building and fully resimulating the
// candidate circuit, the targets are overlaid on the round's base
// simulation and only their fanout cones recomputed
// (estimator.ResimulateWithSet) — bit-identical to
// cmp.Error(lac.Apply(base, set)) because Rebuild preserves output
// functions. The comparator is shared by the duel's concurrent
// measurements; its evaluation paths are read-only.
func (l *loop) measure(r *roundState, set []*lac.LAC) float64 {
	sp := l.rec.StartPhase(r.rs.Round, obs.PhaseMeasure)
	e := l.cmp.ErrorFromPOs(estimator.ResimulateWithSet(r.g, r.simRes, set))
	sp.End()
	l.rec.CountSimPatterns(l.patCount)
	return e
}

// ledgerRound converts one completed round's statistics into the
// ledger's event shape. Only called when a ledger sink is attached:
// the area/depth trajectory columns invoke the technology mapper,
// which the uninstrumented loop must never pay for.
func ledgerRound(rs RoundStats, gNew *aig.Graph, budgetLeft float64, applied []*lac.LAC, measured []float64) obs.RoundEvent {
	ev := obs.RoundEvent{
		Round:         rs.Round,
		Candidates:    rs.Candidates,
		BudgetLeft:    budgetLeft,
		TopSize:       rs.TopSize,
		ConflictNodes: rs.TopSize,
		ConflictEdges: rs.ConflictEdges,
		SolSize:       rs.SolSize,
		InflPairs:     rs.InflPairs,
		InflAbove:     rs.InflAbove,
		MISSize:       rs.MISSize,
		IndpSize:      rs.IndpSize,
		RandSize:      rs.RandSize,
		PickedIndp:    rs.PickedIndp,
		Multi:         rs.MultiRound,
		GuardSingle:   rs.GuardSingle,
		Reverted:      rs.Reverted,
		EstErr:        rs.EstimatedErr,
		Error:         rs.Error,
		NumAnds:       gNew.NumAnds(),
		Depth:         gNew.Depth(),
		NoProgress:    rs.NoProgress,
		DurationUS:    rs.RoundDuration.Microseconds(),
	}
	ev.Area, _ = mapping.AreaDelay(gNew)
	if rs.CertRan {
		c := rs.Certified
		ev.Certified = &c
		ev.CertConflicts = rs.CertConflicts
	}
	if rs.HasDuel {
		i, r := rs.DuelIndpErr, rs.DuelRandErr
		ev.DuelIndpErr, ev.DuelRandErr = &i, &r
	}
	for i, l := range applied {
		a := obs.AppliedLAC{Target: l.Target, Gain: l.Gain, DeltaE: l.DeltaE}
		if i < len(measured) {
			a.MeasuredErr = measured[i]
		}
		ev.Applied = append(ev.Applied, a)
	}
	return ev
}

// emitProgress delivers one round's statistics to the Progress
// callback. The snapshot is decoupled from the run: the graph is
// deep-copied, so a callback that retains or mutates it cannot
// corrupt the synthesis state.
func emitProgress(progress func(RoundStats), rs RoundStats, g *aig.Graph) {
	if progress == nil {
		return
	}
	snap := rs
	snap.Graph = g.Clone()
	progress(snap)
}
