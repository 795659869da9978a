// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three fixed workloads of synthesis jobs, checks every result, and
// prints one JSON result line. With -trace 0 it reports the end-to-end
// metrics of a timed run; with -trace 1 it replays every round of every
// job through each layer's public functions and reports per-layer
// metrics instead. See README.md for the workloads and the metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload lib_word --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the workload seed kept for held-out claims: a change
// tuned against other seeds must also show its gain under this one.
const heldOutSeed = 1009

// minSetups is the fewest set-up repetitions behind setup_s.
const minSetups = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lib_word, daemon_bit or lib_seals")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "minimum measured time of a timed run")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "e2ebench"), "scratch directory for daemon state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	meta := map[string]any{
		"workload":      w.Name,
		"seed":          *seed,
		"sets":          w.Sets,
		"held_out_seed": heldOutSeed,
		"host":          hostMeta(),
	}
	var res *result
	if *trace == 1 {
		res, err = traced(w, *seed, *workDir, meta)
	} else {
		res, err = timed(w, *seed, *workDir, time.Duration(*seconds*float64(time.Second)), meta)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"meta": meta})
	for _, r := range res.records {
		_ = enc.Encode(r)
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "e2ebench: FAILED", e)
	}
	out := map[string]any{
		"correct":   len(res.errs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

// result is everything one invocation reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	records           []record
	// errs lists every failed check; any entry makes the run incorrect.
	errs []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timed measures the workload end to end with tracing off. Each pass
// runs the whole bank of w.Sets sets; passes repeat until the timed
// sections add up to minTime, and every timing is the median over
// passes. A last, untimed pass repeats the last job of set 0 to check
// determinism; the traced run repeats all of set 0 three times.
func timed(w workload, seed int64, workDir string, minTime time.Duration, meta map[string]any) (*result, error) {
	bank := w.tasks(seed, w.Sets)
	var setups, walls, cpus, allocs []float64
	var area0, delay0 []float64
	var chk *checker
	var measured time.Duration
	for n := 0; n == 0 || measured < minTime; n++ {
		p, d, err := timedSetup(w, workDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		runtime.GC()
		outs, c, _ := pass(w, p, bank)
		if err := p.release(); err != nil {
			return nil, err
		}
		measured += c.Wall
		walls = append(walls, c.Wall.Seconds())
		cpus = append(cpus, c.CPU.Seconds())
		allocs = append(allocs, float64(c.AllocB)/(1<<20))
		if chk == nil {
			chk = newChecker(w, p.origs, w.Sets)
			area0, delay0 = p.area, p.delay
		}
		chk.check(bank, outs)
	}
	// More set-ups, so setup_s is a median of at least minSetups; the
	// last one serves the determinism repeat.
	var p *prepared
	for {
		var d float64
		var err error
		if p, d, err = timedSetup(w, workDir); err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if len(setups) >= minSetups {
			break
		}
		if err := p.release(); err != nil {
			return nil, err
		}
	}
	again := bank[len(w.Jobs)-1 : len(w.Jobs)]
	outs, _, _ := pass(w, p, again)
	if err := p.release(); err != nil {
		return nil, err
	}
	chk.check(again, outs)

	meta["passes"] = len(walls)
	meta["wall_s_passes"] = walls
	area, delay, rounds := quality(chk.first, w, area0, delay0)
	m := map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"setup_s":     {median(setups), "s"},
		"alloc_mb":    {median(allocs), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"area_ratio":  {area, "ratio"},
		"delay_ratio": {delay, "ratio"},
		"rounds":      {float64(rounds), "count"},
		"pass_frac":   {1 - float64(chk.failed)/float64(chk.checked), "frac"},
	}
	return &result{
		attempted: chk.checked,
		failed:    chk.failed,
		metrics:   m,
		records:   chk.records(),
		errs:      chk.errs,
	}, nil
}

// timedSetup runs one set-up after a collection, returning its seconds.
func timedSetup(w workload, workDir string) (*prepared, float64, error) {
	runtime.GC()
	t := time.Now()
	p, err := setup(w, workDir)
	return p, time.Since(t).Seconds(), err
}

// quality returns the geometric means over jobs of final/initial
// mapped area and delay, and the total rounds, from the determinism
// records. Failed jobs have no record and are left out; the gate has
// counted them.
func quality(recs []*record, w workload, area0, delay0 []float64) (area, delay float64, rounds int) {
	var la, ld float64
	n := 0
	for k, r := range recs {
		if r == nil {
			continue
		}
		i := k % len(w.Jobs)
		rounds += r.Rounds
		la += math.Log(r.Area / area0[i])
		ld += math.Log(r.Delay / delay0[i])
		n++
	}
	if n == 0 {
		return 0, 0, rounds
	}
	return math.Exp(la / float64(n)), math.Exp(ld / float64(n)), rounds
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// totalAlloc is the cumulative count of heap bytes allocated, read
// without stopping the world.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostMeta describes the machine and build the numbers come from.
func hostMeta() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
