package experiments

import (
	"context"
	"time"

	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// AblationRow quantifies one AccALS design choice on one circuit by
// disabling it: the MIS-based independent set, the random control
// set, or the improvement techniques of Section II-E. SEALS is
// included as the single-selection reference.
type AblationRow struct {
	Circuit string
	Variant string
	ADP     float64
	Error   float64
	Rounds  int
	Time    time.Duration
}

// ablationCases pairs circuits with the metric/bound regime where the
// selection machinery is exercised hardest.
var ablationCases = []struct {
	circuit string
	metric  errmetric.Kind
	bound   float64
}{
	{"mtp8", errmetric.NMED, 0.0019531},
	{"c3540", errmetric.ER, 0.03},
	{"rca32", errmetric.MRED, 0.0019531},
}

// Ablation runs the flow variants and reports quality and runtime.
func Ablation(cfg Config) []AblationRow {
	cfg = cfg.withDefaults()
	cases := ablationCases
	if cfg.Quick {
		cases = cases[:1]
	}

	variants := []struct {
		name   string
		params core.Params
		gen    lac.Config
		exact  bool
		seals  bool
	}{
		{name: "full"},
		{name: "no-indp", params: core.Params{DisableIndp: true}},
		{name: "no-random", params: core.Params{DisableRandom: true}},
		{name: "no-improve", params: core.Params{DisableImprovements: true}},
		{name: "exact-est", exact: true},
		{name: "resub2", gen: lac.Config{EnableResub: true}},
		{name: "resub3", gen: lac.Config{EnableResub: true, EnableResub3: true}},
		{name: "seals", seals: true},
	}

	var rows []AblationRow
	for _, c := range cases {
		g := mustCircuit(c.circuit)
		pats := simulate.NewPatterns(g.NumPIs(), cfg.Patterns, cfg.Seed)
		cmp := errmetric.NewComparator(c.metric, g, pats)
		fprintf(cfg.Out, "\nAblation on %s (%v <= %g):\n", c.circuit, c.metric, c.bound)
		fprintf(cfg.Out, "%-12s %10s %12s %8s %10s\n", "variant", "ADP", "error", "rounds", "time")
		for _, v := range variants {
			params := v.params
			params.Seed = cfg.Seed
			opt := core.Options{
				NumPatterns:    cfg.Patterns,
				PatternSeed:    cfg.Seed,
				Params:         params,
				GenCfg:         v.gen,
				ExactEstimates: v.exact,
			}
			var res *core.Result
			if v.seals {
				res = core.RunSEALSWithComparatorCtx(context.Background(), g, cmp, c.bound, opt, time.Now())
			} else {
				res = core.RunWithComparatorCtx(context.Background(), g, cmp, c.bound, opt, time.Now())
			}
			row := AblationRow{
				Circuit: c.circuit,
				Variant: v.name,
				ADP:     adpRatio(g, res.Final),
				Error:   res.Error,
				Rounds:  len(res.Rounds),
				Time:    res.Runtime,
			}
			rows = append(rows, row)
			fprintf(cfg.Out, "%-12s %10.4f %12.6f %8d %10v\n",
				row.Variant, row.ADP, row.Error, row.Rounds, row.Time.Round(time.Millisecond))
		}
	}
	return rows
}
