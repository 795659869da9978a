package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"accals"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/seals"
	"accals/internal/simulate"
)

// span is one timed call, recorded from the benchmark's own files
// around a call into a layer. Spans stay in memory until the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Job     string `json:"job"`
	Round   int    `json:"round"` // -1 outside a round
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, name, job string, round int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Round: round, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) time.Duration {
	d := time.Since(t.t0).Nanoseconds() - t.spans[id].StartNS
	t.spans[id].DurNS = d
	return time.Duration(d)
}

func (t *tracer) do(parent int, name, job string, round int, f func()) {
	id := t.begin(parent, name, job, round)
	f()
	t.end(id)
}

// busy sums the durations of every span with the given name.
func (t *tracer) busy(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.DurNS
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names: one per replayed layer call.
const (
	spanSimulate = "simulate.Runner.Run"
	spanGenerate = "lac.Generate"
	spanEstimate = "estimator.EstimateAllRec"
	spanConflict = "core.BuildConflictGraph"
	spanMapping  = "mapping.AreaDelay"
	spanCertify  = "maxerr.Certify"
)

// counts are the replay's work counts, summed over jobs and rounds.
type counts struct {
	rounds, reverted         int
	candidates, top, applied int
	simCalls                 int
	gatePatterns             float64
	mapCalls                 int
	certCalls, certified     int
	satConflicts             int64
}

// replay re-runs every round of a job on its base circuit, timing each
// layer's public entry point, and checks that the replay reproduces the
// run: base AND count, candidate count, conflict-graph edges and the
// certification verdict must all equal what the run reported.
func replay(tr *tracer, parent int, j job, orig *accals.Graph, seed int64, rounds []accals.RoundStats, c *counts) error {
	opt := j.options(seed)
	pats := opt.Patterns(orig)
	cmp := errmetric.NewComparator(j.metric(), orig, pats)
	runner := simulate.NewRunner(opt.Workers)
	est := estimator.New(opt.Workers)
	genCfg := opt.GenCfg
	if !j.SEALS {
		// The AccALS loop passes its worker budget to the generator;
		// SEALS passes Options.GenCfg unchanged.
		genCfg.Workers = opt.Workers
	}
	name := j.name()
	// Round 0 runs on a clone: Clone drops the original's dangling ANDs.
	base := orig.Clone()
	for _, rs := range rounds {
		r := rs.Round
		if base.NumAnds() != rs.NumAnds {
			return fmt.Errorf("round %d: replay base has %d ANDs, run reported %d", r, base.NumAnds(), rs.NumAnds)
		}
		var res *simulate.Result
		var err error
		tr.do(parent, spanSimulate, name, r, func() { res, err = runner.Run(base, pats) })
		if err != nil {
			return fmt.Errorf("round %d: simulate: %w", r, err)
		}
		c.simCalls++
		c.gatePatterns += float64(base.NumAnds()) * float64(pats.NumPatterns())

		var cands []*lac.LAC
		tr.do(parent, spanGenerate, name, r, func() { cands = lac.Generate(base, res, genCfg) })
		if len(cands) != rs.Candidates {
			return fmt.Errorf("round %d: replay generated %d candidates, run reported %d", r, len(cands), rs.Candidates)
		}
		tr.do(parent, spanEstimate, name, r, func() { est.EstimateAllRec(base, res, cmp, cands, nil) })
		runner.Release(res)
		c.rounds++
		c.candidates += len(cands)
		c.applied += rs.AppliedLACs
		if rs.Reverted {
			c.reverted++
		}

		if rs.TopSize > 0 {
			// The SEALS comparison is the AccALS loop's top-set order.
			seals.SortCandidates(cands)
			top := cands[:rs.TopSize]
			edges := 0
			tr.do(parent, spanConflict, name, r, func() { edges = core.BuildConflictGraph(top).NumEdges() })
			if edges != rs.ConflictEdges {
				return fmt.Errorf("round %d: replay conflict graph has %d edges, run reported %d", r, edges, rs.ConflictEdges)
			}
			c.top += rs.TopSize
		}
		tr.do(parent, spanMapping, name, r, func() { mapping.AreaDelay(rs.Graph) })
		c.mapCalls++
		if rs.CertRan {
			var cert *maxerr.Certificate
			tr.do(parent, spanCertify, name, r, func() {
				cert, err = maxerr.Certify(rs.Graph, orig, uint64(j.Bound), core.DefaultCertBudget)
			})
			if err != nil {
				return fmt.Errorf("round %d: certify: %w", r, err)
			}
			if cert.Certified != rs.Certified || cert.Conflicts != rs.CertConflicts {
				return fmt.Errorf("round %d: replay certified=%v in %d conflicts, run reported %v in %d", r, cert.Certified, cert.Conflicts, rs.Certified, rs.CertConflicts)
			}
			c.certCalls++
			if cert.Certified {
				c.certified++
			}
			c.satConflicts += cert.Conflicts
		}
		base = rs.Graph
	}
	return nil
}

// traced runs each job three ways through the library — plain, with a
// Progress callback capturing every round's circuit, and with a ledger
// sink — then replays the captured rounds layer by layer. The daemon
// workload first runs its batch through the daemon; the library runs
// of the same specs must reproduce the daemon's BLIF byte for byte.
func traced(w workload, seed int64, workDir string, meta map[string]any) (*result, error) {
	p, err := setup(w, workDir)
	if err != nil {
		return nil, err
	}
	set0 := w.tasks(seed, 1)
	chk := newChecker(w, p.origs, 1)
	var st serveTimes
	if w.Daemon {
		var outs []outcome
		outs, _, st = pass(w, p, set0)
		if err := p.release(); err != nil {
			return nil, err
		}
		chk.check(set0, outs)
	}
	tr := &tracer{t0: time.Now()}
	var c counts
	var plainWall, progWall, ledgerWall time.Duration
	var errs []string
	plain := make([]outcome, len(w.Jobs))
	prog := make([]outcome, len(w.Jobs))
	led := make([]outcome, len(w.Jobs))
	for i, tk := range set0 {
		j := w.Jobs[tk.Job]
		orig, opt := p.origs[tk.Job], j.options(tk.Seed)

		t0 := time.Now()
		plain[i] = libOutcome(j.synthesize(orig, opt))
		plainWall += time.Since(t0)

		var rounds []accals.RoundStats
		popt := opt
		popt.Progress = func(rs accals.RoundStats) { rounds = append(rounds, rs) }
		jobSpan := tr.begin(-1, "job", j.name(), -1)
		prog[i] = libOutcome(j.synthesize(orig, popt))
		progWall += tr.end(jobSpan)

		lopt := opt
		lopt.Recorder = accals.NewRecorder()
		lopt.Recorder.AddSink(accals.NewLedgerWriter(io.Discard))
		t0 = time.Now()
		led[i] = libOutcome(j.synthesize(orig, lopt))
		ledgerWall += time.Since(t0)

		rp := tr.begin(jobSpan, "replay", j.name(), -1)
		if err := replay(tr, rp, j, orig, tk.Seed, rounds, &c); err != nil {
			errs = append(errs, fmt.Sprintf("%s: replay fidelity: %v", j.name(), err))
		}
		tr.end(rp)
	}
	// For the daemon the first records are the daemon's; every library
	// run must then reproduce them exactly.
	chk.check(set0, prog)
	chk.check(set0, plain)
	chk.check(set0, led)

	spanFile := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, seed))
	if err := tr.write(spanFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	meta["spans"] = spanFile

	sim, gen, est := tr.busy(spanSimulate), tr.busy(spanGenerate), tr.busy(spanEstimate)
	conf, mapt, cert := tr.busy(spanConflict), tr.busy(spanMapping), tr.busy(spanCertify)
	m := map[string]metric{
		"estimator.busy_s":             {est.Seconds(), "s"},
		"estimator.candidates_per_s":   {rate(float64(c.candidates), est), "1/s"},
		"estimator.useful_frac":        {frac(c.applied, c.candidates), "frac"},
		"core.top_frac":                {frac(c.top, c.candidates), "frac"},
		"lac.busy_s":                   {gen.Seconds(), "s"},
		"lac.candidates":               {float64(c.candidates), "count"},
		"lac.candidates_per_s":         {rate(float64(c.candidates), gen), "1/s"},
		"core.conflict_s":              {conf.Seconds(), "s"},
		"core.residual_s":              {(progWall - sim - gen - est - conf - cert).Seconds(), "s"},
		"core.revert_frac":             {frac(c.reverted, c.rounds), "frac"},
		"maxerr.busy_s":                {cert.Seconds(), "s"},
		"maxerr.calls":                 {float64(c.certCalls), "count"},
		"maxerr.certified_frac":        {frac(c.certified, c.certCalls), "frac"},
		"sat.conflicts":                {float64(c.satConflicts), "count"},
		"mapping.busy_s":               {mapt.Seconds(), "s"},
		"mapping.calls":                {float64(c.mapCalls), "count"},
		"ledger.overhead_s":            {(ledgerWall - plainWall).Seconds(), "s"},
		"serve.submit_s":               {st.Submit.Seconds(), "s"},
		"serve.queue_wait_s":           {st.QueueWait.Seconds(), "s"},
		"serve.job_run_s":              {st.JobRun.Seconds(), "s"},
		"simulate.busy_s":              {sim.Seconds(), "s"},
		"simulate.calls":               {float64(c.simCalls), "count"},
		"simulate.gate_patterns_per_s": {rate(c.gatePatterns, sim), "1/s"},
		"trace.overhead_s":             {(progWall - plainWall).Seconds(), "s"},
	}
	return &result{
		attempted: chk.checked,
		failed:    chk.failed,
		metrics:   m,
		records:   chk.records(),
		errs:      append(chk.errs, errs...),
	}, nil
}

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
