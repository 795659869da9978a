// Package experiments reproduces every table and figure of the
// paper's evaluation (Section III). Each experiment returns typed rows
// and optionally prints a formatted table, so the cmd/experiments
// binary, the test suite and the benchmark harness all share one
// implementation. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/mapping"
	"accals/internal/simulate"
)

// Config holds the knobs shared by all experiments.
type Config struct {
	// Patterns is the Monte-Carlo sample budget (exhaustive simulation
	// is used when the input space fits). Defaults to 8192.
	Patterns int
	// Runs averages results over this many seeded runs (the paper
	// runs small benchmarks three times). Defaults to 3.
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Quick shrinks the experiment (fewer runs, fewer patterns,
	// smaller threshold lists) for use in benchmarks and smoke tests.
	Quick bool
	// BundleDir, when non-empty, keeps each ledger-instrumented run's
	// round ledger on disk under one subdirectory per run (currently
	// Fig. 4), for later cmd/report analysis. Empty means in-memory only.
	BundleDir string
	// Out receives formatted tables; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Patterns == 0 {
		c.Patterns = 8192
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Quick {
		c.Runs = 1
		if c.Patterns > 2048 {
			c.Patterns = 2048
		}
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// ER thresholds used by Fig. 5 and Fig. 6(a) (fractions, from the
// paper's 0.03%..5%).
var erThresholds = []float64{0.0003, 0.001, 0.005, 0.03, 0.05}

// NMED/MRED thresholds used by Fig. 6(b)/(c).
var wordThresholds = []float64{0.0000153, 0.0000610, 0.0002441, 0.0019531}

// smallCircuits lists the ISCAS + small arithmetic circuits of
// Table I column 1.
func smallCircuits() []string {
	return []string{"alu4", "c880", "c1908", "c3540", "cla32", "ksa32", "mtp8", "rca32", "wal8"}
}

// arithCircuits lists the five small arithmetic circuits (the word-
// level metric targets).
func arithCircuits() []string {
	return []string{"cla32", "ksa32", "mtp8", "rca32", "wal8"}
}

// epflCircuits lists the large arithmetic circuits of Table II.
func epflCircuits() []string {
	return []string{"div", "log2", "sin", "sqrt", "square"}
}

// lgsyntCircuits lists the LGSynt91 circuits of Fig. 7 / Table III.
func lgsyntCircuits() []string {
	return []string{"alu2", "apex6", "frg2", "term1"}
}

// mustCircuit builds a registered benchmark or panics (experiment
// tables are static, so a failure is a programming error).
func mustCircuit(name string) *aig.Graph {
	g, err := circuits.ByName(name)
	if err != nil {
		panic(err)
	}
	return g
}

// runPair runs AccALS and SEALS on the same circuit, bound and seed,
// sharing one comparator, and returns both results.
func runPair(g *aig.Graph, metric errmetric.Kind, bound float64, cfg Config, seed int64) (acc, sls *core.Result) {
	opt := core.Options{
		NumPatterns: cfg.Patterns,
		PatternSeed: cfg.Seed,
		Params:      core.Params{Seed: seed},
	}
	pats := simulate.NewPatterns(g.NumPIs(), cfg.Patterns, cfg.Seed)
	cmp := errmetric.NewComparator(metric, g, pats)
	acc = core.RunWithComparatorCtx(context.Background(), g, cmp, bound, opt, time.Now())
	sls = core.RunSEALSWithComparatorCtx(context.Background(), g, cmp, bound, opt, time.Now())
	return acc, sls
}

// adpRatio maps a result against its original and returns the
// area-delay-product ratio.
func adpRatio(orig, approx *aig.Graph) float64 {
	oa, od := mapping.AreaDelay(orig)
	aa, ad := mapping.AreaDelay(approx)
	if oa == 0 || od == 0 {
		return 1
	}
	return (aa * ad) / (oa * od)
}

// fprintfTable prints a header then rows through a tab-ish format.
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
