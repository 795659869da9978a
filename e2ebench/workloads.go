package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"accals"
	"accals/internal/serve"
)

// job is one synthesis call of a workload's fixed job list.
type job struct {
	Circuit  string
	Metric   string // serve.JobSpec spelling: er, nmed, mhd or maxed
	Bound    float64
	Patterns int
	SEALS    bool
}

func (j job) name() string {
	return fmt.Sprintf("%s/%s/%g/%d", j.Circuit, j.Metric, j.Bound, j.Patterns)
}

func (j job) metric() accals.Metric {
	switch j.Metric {
	case "nmed":
		return accals.NMED
	case "mhd":
		return accals.MHD
	case "maxed":
		return accals.MaxED
	}
	return accals.ER
}

// options are the library options of the job under a program seed: one
// worker, no recorder, every mechanism switch at the library default.
func (j job) options(seed int64) accals.Options {
	return accals.Options{
		NumPatterns:    j.Patterns,
		PatternSeed:    seed,
		HasPatternSeed: true,
		Params:         accals.Params{Seed: seed, HasSeed: true},
		Workers:        1,
	}
}

// spec is the daemon submission equivalent to options(seed).
func (j job) spec(seed int64) serve.JobSpec {
	return serve.JobSpec{
		Circuit:  j.Circuit,
		Metric:   j.Metric,
		Bound:    j.Bound,
		Patterns: j.Patterns,
		Seed:     seed,
	}
}

// synthesize runs the job through the library.
func (j job) synthesize(orig *accals.Graph, opt accals.Options) *accals.Result {
	if j.SEALS {
		return accals.SynthesizeSEALS(orig, j.metric(), j.Bound, opt)
	}
	return accals.Synthesize(orig, j.metric(), j.Bound, opt)
}

// workload is a fixed job list driven from one process, in sequence
// through the library or as one closed batch submitted to an
// in-process daemon. A run executes the list Sets times, each set under
// its own seeds: one seed moves a job's round count and per-round cost
// by up to 2x, so a single set is too noisy a sample to compare runs.
type workload struct {
	Name   string
	Daemon bool
	Sets   int
	Jobs   []job
}

var workloads = []workload{
	{Name: "lib_word", Sets: 4, Jobs: []job{
		{Circuit: "mtp8", Metric: "nmed", Bound: 0.01, Patterns: 8192},
		{Circuit: "rca32", Metric: "maxed", Bound: 1024, Patterns: 2048},
		{Circuit: "cla32", Metric: "maxed", Bound: 1024, Patterns: 2048},
		{Circuit: "rca32", Metric: "maxed", Bound: 256, Patterns: 2048},
	}},
	{Name: "daemon_bit", Daemon: true, Sets: 8, Jobs: []job{
		{Circuit: "div", Metric: "mhd", Bound: 0.01, Patterns: 2048},
		{Circuit: "div", Metric: "er", Bound: 0.05, Patterns: 2048},
		{Circuit: "sqrt", Metric: "er", Bound: 0.05, Patterns: 2048},
		{Circuit: "c3540", Metric: "er", Bound: 0.05, Patterns: 2048},
		{Circuit: "c880", Metric: "er", Bound: 0.05, Patterns: 2048},
	}},
	{Name: "lib_seals", Sets: 4, Jobs: []job{
		{Circuit: "sqrt", Metric: "er", Bound: 0.05, Patterns: 2048, SEALS: true},
		{Circuit: "c880", Metric: "er", Bound: 0.05, Patterns: 2048, SEALS: true},
		{Circuit: "c3540", Metric: "er", Bound: 0.05, Patterns: 2048, SEALS: true},
		{Circuit: "mtp8", Metric: "er", Bound: 0.05, Patterns: 2048, SEALS: true},
	}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// task is one job of one set, with the seed the program receives.
type task struct {
	Set, Job int
	Seed     int64
}

// tasks lists the first sets of the workload's job list under seeds
// derived from the workload seed, set by set in job-list order.
func (w workload) tasks(seed int64, sets int) []task {
	var ts []task
	for s := 0; s < sets; s++ {
		for i := range w.Jobs {
			ts = append(ts, task{Set: s, Job: i, Seed: programSeed(seed, s, i)})
		}
	}
	return ts
}

// programSeed derives the PatternSeed and Params.Seed of one job of one
// set from the workload seed by chained SplitMix64 mixes, kept positive
// and non-zero so the daemon and the library read it the same way.
func programSeed(seed int64, set, job int) int64 {
	x := splitmix(splitmix(splitmix(uint64(seed))^uint64(set)) ^ uint64(job))
	return int64(x>>33) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// prepared is the untimed state a pass starts from: the original
// circuits with their mapped area and delay, and for the daemon an
// open Manager over an empty state directory.
type prepared struct {
	origs       []*accals.Graph
	area, delay []float64
	mgr         *serve.Manager
	dir         string
}

// setup builds the circuits, maps them, and opens the daemon in a fresh
// directory under workDir.
func setup(w workload, workDir string) (*prepared, error) {
	p := &prepared{}
	for _, j := range w.Jobs {
		g, err := accals.Benchmark(j.Circuit)
		if err != nil {
			return nil, err
		}
		a, d := accals.AreaDelay(g)
		p.origs = append(p.origs, g)
		p.area = append(p.area, a)
		p.delay = append(p.delay, d)
	}
	if !w.Daemon {
		return p, nil
	}
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	mgr, err := serve.Open(serve.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open daemon: %w", err)
	}
	p.mgr, p.dir = mgr, dir
	return p, nil
}

// release closes the daemon and removes its state directory.
func (p *prepared) release() error {
	if p.mgr == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := p.mgr.Close(ctx)
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	p.mgr = nil
	return err
}

// outcome is one job's result as the benchmark checks it.
type outcome struct {
	Final  *accals.Graph
	Error  float64
	Rounds int
	Stop   string
	// State is the daemon job's terminal state; empty for library jobs.
	State string
	// Failure describes a job that produced no checkable result.
	Failure string
	// BLIF is the daemon's result netlist; empty for library jobs.
	BLIF string
}

func libOutcome(res *accals.Result) outcome {
	return outcome{Final: res.Final, Error: res.Error, Rounds: len(res.Rounds), Stop: res.StopReason.String()}
}

// cost is what the timed section of one pass consumed.
type cost struct {
	Wall, CPU time.Duration
	AllocB    uint64
}

// serveTimes are the daemon-side timings of one batch, from the Job
// timestamps and the Submit calls.
type serveTimes struct {
	Submit, QueueWait, JobRun time.Duration
}

// pass runs the tasks once and returns each one's outcome plus the
// timed section's cost.
func pass(w workload, p *prepared, ts []task) ([]outcome, cost, serveTimes) {
	var st serveTimes
	var ids []string
	outs := make([]outcome, len(ts))
	c0 := snapshotCost()
	if w.Daemon {
		ids, st = daemonBatch(w, p, ts, outs)
	} else {
		for k, t := range ts {
			j := w.Jobs[t.Job]
			outs[k] = libOutcome(j.synthesize(p.origs[t.Job], j.options(t.Seed)))
		}
	}
	c := snapshotCost().sub(c0)
	// Fetching and parsing the daemon's results happens after the clock
	// stops.
	for k, id := range ids {
		if id != "" {
			outs[k] = fetchResult(p.mgr, id)
		}
	}
	return outs, c, st
}

// daemonBatch submits every task at t=0 as one closed batch and waits
// until the last job is terminal. It returns the job ids, recording a
// rejected submission in outs and leaving its id empty.
func daemonBatch(w workload, p *prepared, ts []task, outs []outcome) ([]string, serveTimes) {
	var st serveTimes
	ids := make([]string, len(ts))
	var wg sync.WaitGroup
	for k, t := range ts {
		t0 := time.Now()
		sub, err := p.mgr.Submit(w.Jobs[t.Job].spec(t.Seed))
		st.Submit += time.Since(t0)
		if err != nil {
			outs[k].Failure = "submit: " + err.Error()
			continue
		}
		ids[k] = sub.ID
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			waitTerminal(p.mgr, id)
		}(sub.ID)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		if info, err := p.mgr.Get(id); err == nil {
			st.QueueWait += info.StartedAt.Sub(info.SubmittedAt)
			st.JobRun += info.FinishedAt.Sub(info.StartedAt)
		}
	}
	return ids, st
}

// waitTerminal drains the job's event stream, which closes after the
// terminal state event. A subscriber the daemon dropped for lagging
// falls back to polling.
func waitTerminal(m *serve.Manager, id string) {
	if ch, stop, err := m.Subscribe(id); err == nil {
		for range ch {
		}
		stop()
	}
	for {
		info, err := m.Get(id)
		if err != nil || info.State.Terminal() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// fetchResult reads a terminal job's state and result, parsing its
// BLIF through the public reader.
func fetchResult(m *serve.Manager, id string) outcome {
	info, err := m.Get(id)
	if err != nil {
		return outcome{Failure: err.Error()}
	}
	o := outcome{State: string(info.State)}
	if info.State != serve.StateDone {
		o.Failure = fmt.Sprintf("job %s ended %s: %s", id, info.State, info.Failure)
		return o
	}
	res, err := m.Result(id)
	if err != nil {
		o.Failure = err.Error()
		return o
	}
	o.BLIF, o.Error, o.Rounds, o.Stop = res.BLIF, res.Error, res.Rounds, res.StopReason
	if o.Final, err = accals.ReadBLIF(strings.NewReader(res.BLIF)); err != nil {
		o.Failure = "result BLIF: " + err.Error()
	}
	return o
}

// procCost is a point-in-time reading of the process's CPU time and
// allocated bytes.
type procCost struct {
	at     time.Time
	cpu    time.Duration
	allocB uint64
}

func snapshotCost() procCost {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procCost{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: totalAlloc(),
	}
}

func (c procCost) sub(o procCost) cost {
	return cost{Wall: c.at.Sub(o.at), CPU: c.cpu - o.cpu, AllocB: c.allocB - o.allocB}
}
