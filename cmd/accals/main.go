// Command accals synthesises an approximate circuit from a benchmark
// or a BLIF file under a statistical error bound, using the AccALS
// multi-LAC flow (default) or the SEALS single-selection baseline.
//
// Examples:
//
//	accals -circuit mtp8 -metric er -bound 0.05
//	accals -blif design.blif -metric nmed -bound 0.0019531 -out approx.blif
//	accals -circuit rca32 -method seals -metric mred -bound 0.001 -v
//
// The maxed metric bounds the worst-case error distance and proves it
// with SAT: every accepted round carries an UNSAT certificate that
// |approx - exact| never exceeds -bound on any input (the bound is an
// absolute integer, not a fraction). Both methods certify:
//
//	accals -circuit rca8 -metric maxed -bound 4
//	accals -circuit rca8 -method seals -metric maxed -bound 4
//
// Long runs are interrupt-safe: SIGINT/SIGTERM stops the run after the
// current round and the best-so-far circuit is still written to -out,
// -aiger and -verilog. With -checkpoint the run snapshots every
// -checkpoint-every rounds, plus the last accepted round when it is
// interrupted off the cadence; -resume restarts from the latest valid
// snapshot (the accalsd daemon runs the same protocol, internal/session):
//
//	accals -circuit mtp8 -bound 0.05 -checkpoint ckpt/ -max-runtime 30s
//	accals -circuit mtp8 -bound 0.05 -checkpoint ckpt/ -resume
//
// With -bundle the run writes a self-describing run bundle — the
// per-round decision ledger, a config/environment manifest, the
// end-of-run summary, a phase trace, and (past -bundle-slow-round)
// auto-captured CPU/heap profiles — for offline analysis and
// regression diffing with cmd/report. A resumed run cuts the bundle's
// ledger back to its snapshot, so no round is recorded twice:
//
//	accals -circuit mtp8 -bound 0.05 -bundle runs/mtp8
//	report runs/mtp8
//
// Candidate evaluation can be farmed out to external evaluator
// processes (the same binary in -serve-eval mode); the result is
// bit-identical to a local sequential run:
//
//	accals -serve-eval -listen 127.0.0.1:7001 &
//	accals -serve-eval -listen 127.0.0.1:7002 &
//	accals -circuit mtp8 -bound 0.05 -evaluators 127.0.0.1:7001,127.0.0.1:7002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"accals/internal/aig"
	"accals/internal/aiger"
	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/dispatch"
	"accals/internal/errmetric"
	"accals/internal/faultinject"
	"accals/internal/ledger"
	"accals/internal/mapping"
	"accals/internal/obs"
	"accals/internal/opt"
	"accals/internal/runctl"
	"accals/internal/session"
)

// config holds the parsed command line. It is validated up front so
// every rejected combination produces one actionable message instead
// of a failure deep inside the run.
type config struct {
	circuit     string
	blifPath    string
	metricName  string
	bound       float64
	method      string
	patterns    int
	workers     int
	seed        int64
	hasSeed     bool // -seed given explicitly
	outPath     string
	aigerPath   string
	verilogPath string
	balance     bool
	verbose     bool

	certBudget int64

	checkpointDir   string
	checkpointEvery int
	resume          bool
	maxRuntime      time.Duration

	evaluators    string
	evalFaults    string
	evalFaultSeed int64
	serveEval     bool
	listenAddr    string

	tracePath       string
	traceChromePath string
	metricsAddr     string
	pprofAddr       string
	summaryPath     string
	progressEvery   time.Duration
	bundleDir       string
	bundleSlowRound time.Duration
}

// wantsObs reports whether any flag requires a live obs.Recorder. With
// none set the flows run with a nil recorder (pure no-op path).
func (c *config) wantsObs() bool {
	return c.tracePath != "" || c.traceChromePath != "" ||
		c.metricsAddr != "" || c.pprofAddr != "" ||
		c.summaryPath != "" || c.progressEvery > 0 ||
		c.bundleDir != ""
}

func parseFlags(args []string) (*config, bool, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("accals", flag.ContinueOnError)
	fs.StringVar(&cfg.circuit, "circuit", "", "built-in benchmark name (see -list)")
	fs.StringVar(&cfg.blifPath, "blif", "", "input BLIF file (alternative to -circuit)")
	fs.StringVar(&cfg.metricName, "metric", "er", "error metric: er, nmed, mred, mhd, maxed (SAT-certified worst case)")
	fs.Float64Var(&cfg.bound, "bound", 0.05, "error bound (fraction in (0,1], e.g. 0.05 = 5%; for -metric maxed an absolute integer error distance)")
	fs.StringVar(&cfg.method, "method", "accals", "synthesis method: accals, seals")
	fs.IntVar(&cfg.patterns, "patterns", 8192, "Monte-Carlo pattern budget")
	fs.IntVar(&cfg.workers, "workers", 0, "evaluation worker count (0 = one per CPU, 1 = sequential); results are identical at any setting")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.outPath, "out", "", "write the approximate circuit as BLIF")
	fs.StringVar(&cfg.aigerPath, "aiger", "", "write the approximate circuit as binary AIGER")
	fs.StringVar(&cfg.verilogPath, "verilog", "", "write the mapped approximate circuit as structural Verilog")
	fs.BoolVar(&cfg.balance, "balance", false, "balance the circuit before synthesis (depth reduction)")
	fs.BoolVar(&cfg.verbose, "v", false, "print per-round progress")
	fs.StringVar(&cfg.checkpointDir, "checkpoint", "", "directory for periodic run snapshots")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 10, "snapshot cadence in rounds (with -checkpoint)")
	fs.BoolVar(&cfg.resume, "resume", false, "resume from the latest snapshot in -checkpoint")
	fs.DurationVar(&cfg.maxRuntime, "max-runtime", 0, "stop after this wall-clock budget, keeping the best so far (e.g. 30s, 10m)")
	fs.Int64Var(&cfg.certBudget, "cert-budget", 0, "SAT conflict budget per certification with -metric maxed (0 = default, negative = unlimited); an exhausted budget rejects the round")
	fs.StringVar(&cfg.evaluators, "evaluators", "", "comma-separated addresses of -serve-eval processes to farm candidate evaluation to; results are identical with or without them")
	fs.StringVar(&cfg.evalFaults, "eval-faults", "", "fault-injection spec for the evaluator transport (point:mode:prob[:arg][@N], comma-separated; see internal/faultinject)")
	fs.Int64Var(&cfg.evalFaultSeed, "eval-fault-seed", 1, "random seed for -eval-faults")
	fs.BoolVar(&cfg.serveEval, "serve-eval", false, "run as a candidate-evaluation server instead of synthesising (use with -listen and -workers)")
	fs.StringVar(&cfg.listenAddr, "listen", "127.0.0.1:0", "listen address for -serve-eval")
	fs.StringVar(&cfg.tracePath, "trace", "", "write per-phase span events as JSONL to this file")
	fs.StringVar(&cfg.traceChromePath, "trace-chrome", "", "write a Chrome trace_event file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus), /status (JSON) and /debug/vars on this address (e.g. :9090, 127.0.0.1:0)")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve /debug/pprof/ on this address")
	fs.StringVar(&cfg.summaryPath, "summary", "", "write an end-of-run JSON summary (phase times, guard counts, duel win rates) to this file")
	fs.DurationVar(&cfg.progressEvery, "progress-every", 0, "print a one-line progress summary to stderr at this interval (e.g. 5s; 0 disables)")
	fs.StringVar(&cfg.bundleDir, "bundle", "", "write a run bundle (round ledger, manifest, summary, phase trace) into this directory; with -resume the ledger is appended")
	fs.DurationVar(&cfg.bundleSlowRound, "bundle-slow-round", 0, "capture CPU/heap profiles into the bundle once a round takes at least this long (0 disables)")
	list := fs.Bool("list", false, "list built-in benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		return nil, false, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.hasSeed = true
		}
	})
	cfg.metricName = strings.ToLower(cfg.metricName)
	cfg.method = strings.ToLower(cfg.method)
	return cfg, *list, nil
}

// validate rejects unusable flag combinations before any work starts.
func (c *config) validate() error {
	switch {
	case c.circuit != "" && c.blifPath != "":
		return errors.New("use either -circuit or -blif, not both")
	case c.circuit == "" && c.blifPath == "":
		return errors.New("no input: use -circuit <name> or -blif <file> (-list shows benchmarks)")
	}
	metric, err := errmetric.Parse(c.metricName)
	if err != nil {
		return err
	}
	if c.method != "accals" && c.method != "seals" {
		return fmt.Errorf("unknown method %q (want accals or seals)", c.method)
	}
	if err := errmetric.ValidateBound(metric, c.bound); err != nil {
		if metric == errmetric.MaxED {
			return fmt.Errorf("-bound %v out of range: -metric maxed wants a non-negative integer error distance, e.g. 4", c.bound)
		}
		return fmt.Errorf("-bound %v out of range: want a fraction in (0,1], e.g. 0.05 for 5%%", c.bound)
	}
	if metric == errmetric.MaxED {
		if c.evaluators != "" {
			return errors.New("-metric maxed cannot use -evaluators: the remote evaluation protocol has no certification path")
		}
	} else if c.certBudget != 0 {
		return errors.New("-cert-budget needs -metric maxed")
	}
	if c.patterns <= 0 {
		return fmt.Errorf("-patterns %d out of range: want a positive pattern budget", c.patterns)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers %d out of range: want 0 (all CPUs) or a positive worker count", c.workers)
	}
	if c.checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every %d out of range: want at least 1", c.checkpointEvery)
	}
	if c.resume && c.checkpointDir == "" {
		return errors.New("-resume needs -checkpoint <dir> to load snapshots from")
	}
	if c.progressEvery < 0 {
		return fmt.Errorf("-progress-every %v out of range: want a non-negative interval", c.progressEvery)
	}
	if c.bundleSlowRound < 0 {
		return fmt.Errorf("-bundle-slow-round %v out of range: want a non-negative duration", c.bundleSlowRound)
	}
	if c.bundleSlowRound > 0 && c.bundleDir == "" {
		return errors.New("-bundle-slow-round needs -bundle <dir> to store the profiles in")
	}
	if c.evalFaults != "" && c.evaluators == "" {
		return errors.New("-eval-faults needs -evaluators <addrs> to inject faults into")
	}
	if c.evalFaults != "" {
		if _, err := faultinject.Parse(c.evalFaultSeed, c.evalFaults); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	cfg, list, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if list {
		for _, n := range circuits.Names() {
			fmt.Println(n)
		}
		return
	}

	// SIGINT/SIGTERM cancels the run after the current round; the
	// best-so-far circuit is still reported and written below, and with
	// -checkpoint the last accepted round is snapshotted even between
	// cadence points, so a signalled run resumes without losing work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal the handler is deregistered, restoring the
	// default disposition: a second signal terminates immediately
	// instead of waiting for the drain.
	context.AfterFunc(ctx, stop)

	// Server mode needs no circuit or bound: it receives everything
	// over the wire, so it skips the synthesis-flag validation.
	if cfg.serveEval {
		if err := serveEval(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := cfg.validate(); err != nil {
		fatal(err)
	}

	if err := run(ctx, cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

// serveEval runs the process as a candidate-evaluation server: it
// listens on cfg.listenAddr and serves dispatch protocol sessions
// until ctx is cancelled. The resolved address is printed so callers
// binding port 0 can discover it.
func serveEval(ctx context.Context, cfg *config, w io.Writer) error {
	if cfg.workers < 0 {
		return fmt.Errorf("-workers %d out of range: want 0 (all CPUs) or a positive worker count", cfg.workers)
	}
	ln, err := net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving eval on %s\n", ln.Addr())
	srv := &dispatch.Server{Workers: cfg.workers}
	return srv.Serve(ctx, ln)
}

// run executes one synthesis according to cfg, writing the human
// report to w. It is the whole command behind flag parsing, factored
// out so tests can drive it directly.
func run(ctx context.Context, cfg *config, w io.Writer) error {
	g, err := loadCircuit(cfg.circuit, cfg.blifPath)
	if err != nil {
		return err
	}
	metric, err := errmetric.Parse(cfg.metricName)
	if err != nil {
		return err
	}
	if cfg.balance {
		g, err = opt.BalanceCtx(ctx, g)
		if err != nil {
			return err
		}
	}
	if err := errmetric.Validate(metric, g); err != nil {
		return err
	}

	rec, closeObs, err := setupObs(cfg, w)
	if err != nil {
		return err
	}
	defer closeObs()

	sess := &session.Session{
		Graph:      g,
		Metric:     metric,
		MetricName: cfg.metricName,
		Bound:      cfg.bound,
		Method:     cfg.method,
		Options: core.Options{
			NumPatterns:    cfg.patterns,
			PatternSeed:    cfg.seed,
			HasPatternSeed: cfg.hasSeed,
			Params:         core.Params{Seed: cfg.seed, HasSeed: cfg.hasSeed},
			MaxRuntime:     cfg.maxRuntime,
			Workers:        cfg.workers,
			CertBudget:     cfg.certBudget,
			Recorder:       rec,
		},
		Warn: func(err error) { fmt.Fprintf(os.Stderr, "accals: %v\n", err) },
	}
	defer sess.Close(nil)
	if cfg.checkpointDir != "" {
		ckpt, err := checkpoint.NewWriter(cfg.checkpointDir, cfg.checkpointEvery)
		if err != nil {
			return err
		}
		sess.Checkpoints = ckpt
	}
	if cfg.resume {
		snap, err := sess.Resume()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "resuming:  round %d, error %.6f (from %s)\n",
			snap.Round+1, snap.Error, cfg.checkpointDir)
	}

	// The evaluator pool is built after the resume snapshot is loaded:
	// Resume adopts the snapshot's seed as the pattern seed, and the
	// pool must ship the exact pattern set the run will use so remote
	// shards stay bit-identical to local evaluation.
	if cfg.evaluators != "" {
		var inj *faultinject.Injector
		if cfg.evalFaults != "" {
			if inj, err = faultinject.Parse(cfg.evalFaultSeed, cfg.evalFaults); err != nil {
				return err
			}
		}
		var addrs []string
		for _, a := range strings.Split(cfg.evaluators, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return errors.New("-evaluators lists no addresses")
		}
		pool := dispatch.NewPool(addrs, metric, g, sess.Options.Patterns(g), inj)
		defer pool.Close()
		sess.Options.Evaluators = pool
		fmt.Fprintf(w, "evaluators: %d remote\n", pool.Evaluators())
	}

	// The run bundle is opened after the resume snapshot is loaded, so a
	// resumed run cuts the ledger back to the snapshot. It carries its
	// own phase trace unless -trace already routes one elsewhere.
	if cfg.bundleDir != "" {
		if err := sess.OpenBundle(cfg.bundleDir, os.Args, cfg.bundleSlowRound, cfg.tracePath == ""); err != nil {
			return err
		}
		fmt.Fprintf(w, "bundle:    %s\n", cfg.bundleDir)
	}

	// Trace context propagation: a traced run upgrades the evaluator
	// protocol so remote spans come back and land on this run's
	// timeline. Decided after every tracer is attached (-trace flags
	// above, the bundle's own trace just before this), and only then —
	// an untraced run keeps the version-1 wire bytes and the zero-cost
	// dispatch hot path.
	if rec.Tracing() {
		if sess.Options.Evaluators != nil {
			sess.Options.Evaluators.TraceID = rec.TraceID()
		}
		fmt.Fprintf(w, "trace id:  %s\n", rec.TraceID())
	}

	lastProgress := time.Now()
	sess.Options.Progress = func(rs core.RoundStats) {
		if cfg.verbose {
			kind := "multi "
			if !rs.MultiRound {
				kind = "single"
			}
			fmt.Fprintf(w, "round %4d [%s] lacs=%3d err=%.6f ands=%d\n",
				rs.Round, kind, rs.AppliedLACs, rs.Error, rs.NumAnds)
		}
		if cfg.progressEvery > 0 && time.Since(lastProgress) >= cfg.progressEvery {
			lastProgress = time.Now()
			fmt.Fprintf(os.Stderr, "accals: round %d err=%.6f ands=%d lacs=%d noprog=%d\n",
				rs.Round, rs.Error, rs.NumAnds, rs.AppliedLACs, rs.NoProgress)
		}
	}

	res := sess.Run(ctx)
	if snap := sess.FinalSnapshot(); snap != nil {
		fmt.Fprintf(w, "checkpoint: final snapshot at round %d (interrupted off-cadence)\n", snap.Round)
	}

	oa, od := mapping.AreaDelay(g)
	aa, ad := mapping.AreaDelay(res.Final)
	fmt.Fprintf(w, "circuit:   %s (%d PIs, %d POs)\n", g.Name, g.NumPIs(), g.NumPOs())
	fmt.Fprintf(w, "method:    %s, metric %v, bound %g\n", cfg.method, metric, cfg.bound)
	fmt.Fprintf(w, "error:     %.6f\n", res.Error)
	fmt.Fprintf(w, "AIG nodes: %d -> %d (%.2f%%)\n", g.NumAnds(), res.Final.NumAnds(),
		pct(res.Final.NumAnds(), g.NumAnds()))
	fmt.Fprintf(w, "area:      %.1f -> %.1f (%.2f%%)\n", oa, aa, 100*aa/oa)
	fmt.Fprintf(w, "delay:     %.1f -> %.1f (%.2f%%)\n", od, ad, 100*ad/od)
	fmt.Fprintf(w, "rounds:    %d (%d LACs applied)\n", len(res.Rounds), res.LACsApplied)
	fmt.Fprintf(w, "runtime:   %v\n", res.Runtime.Round(res.Runtime/1000+1))
	fmt.Fprintf(w, "stopped:   %v\n", res.StopReason)
	if res.Certified {
		fmt.Fprintf(w, "certified: worst-case error distance <= %g proved by SAT (%d conflicts)\n",
			cfg.bound, res.CertConflicts)
	}
	if res.StopReason == runctl.Uncertified {
		fmt.Fprintf(w, "note:      a candidate round failed SAT certification; outputs hold the last certified circuit\n")
	}
	if res.StopReason.Interrupted() {
		fmt.Fprintf(w, "note:      run interrupted; outputs hold the best circuit found so far\n")
	}

	if cfg.summaryPath != "" {
		if err := ledger.WriteJSON(cfg.summaryPath, sess.Summary(res)); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.summaryPath)
	}

	if cfg.outPath != "" {
		if err := writeFile(w, cfg.outPath, func(f *os.File) error { return blif.Write(f, res.Final) }); err != nil {
			return err
		}
	}
	if cfg.aigerPath != "" {
		if err := writeFile(w, cfg.aigerPath, func(f *os.File) error { return aiger.WriteBinary(f, res.Final) }); err != nil {
			return err
		}
	}
	if cfg.verilogPath != "" {
		_, nl := mapping.MapNetlist(res.Final, mapping.MCNC())
		if err := writeFile(w, cfg.verilogPath, func(f *os.File) error { return nl.WriteVerilog(f) }); err != nil {
			return err
		}
	}
	// Surface trace- and ledger-sink write failures (ENOSPC, closed
	// pipe) instead of silently shipping a truncated trace or ledger.
	if err := sess.Close(res); err != nil {
		return err
	}
	return closeObs()
}

// setupObs wires the observability flags into a recorder with trace
// sinks and introspection servers attached. The returned close
// function is idempotent, flushes the trace files, shuts the servers
// down, and reports the first trace write error. With no obs flag set
// it returns a nil recorder (the flows' no-op path).
func setupObs(cfg *config, w io.Writer) (_ *obs.Recorder, _ func() error, err error) {
	if !cfg.wantsObs() {
		return nil, func() error { return nil }, nil
	}
	rec := obs.NewRecorder()
	var closers []func() error
	closeAll := sync.OnceValue(func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	defer func() {
		if err != nil {
			_ = closeAll()
		}
	}()
	for _, tr := range []struct {
		path   string
		format obs.TraceFormat
	}{{cfg.tracePath, obs.TraceJSONL}, {cfg.traceChromePath, obs.TraceChrome}} {
		if tr.path == "" {
			continue
		}
		f, err := os.Create(tr.path)
		if err != nil {
			return nil, nil, err
		}
		t := obs.NewTracer(f, tr.format)
		rec.AddTracer(t)
		closers = append(closers, func() error {
			if err := errors.Join(t.Close(), f.Close()); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			return nil
		})
	}
	for _, sv := range []struct {
		addr    string
		handler http.Handler
		url     string
	}{
		{cfg.metricsAddr, rec.MetricsHandler(), "metrics:   http://%s/metrics\n"},
		{cfg.pprofAddr, obs.PprofHandler(), "pprof:     http://%s/debug/pprof/\n"},
	} {
		if sv.addr == "" {
			continue
		}
		srv, err := obs.Serve(sv.addr, sv.handler)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() error { _ = srv.Close(); return nil })
		fmt.Fprintf(w, sv.url, srv.Addr())
	}
	return rec, closeAll, nil
}

// writeFile creates path and runs the writer.
func writeFile(w io.Writer, path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func loadCircuit(name, path string) (*aig.Graph, error) {
	if name != "" {
		return circuits.ByName(name)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := blif.Read(f)
	if err != nil && errors.Is(err, runctl.ErrMalformedInput) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, err
}

func pct(a, b int) float64 {
	if b == 0 {
		return 100
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accals:", err)
	os.Exit(1)
}
