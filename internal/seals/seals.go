// Package seals is the single-selection baseline flow modelled on
// SEALS (Meng et al., DAC 2022), the baseline of the paper's Figs. 5-6
// and Table II: each round applies only the candidate LAC with the
// minimum estimated error increase (ties broken by larger area gain).
// It runs on core's round loop, so both flows share every other stage
// and measured speedups isolate the effect of multi-LAC selection.
package seals

import (
	"context"
	"sort"
	"time"

	"accals/internal/aig"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/lac"
)

// Run synthesises an approximate version of orig whose error under the
// given metric does not exceed errBound, applying one LAC per round.
func Run(orig *aig.Graph, metric errmetric.Kind, errBound float64, opt core.Options) *core.Result {
	return core.RunSEALSCtx(context.Background(), orig, metric, errBound, opt)
}

// RunCtx is Run with a context: cancelling ctx (or reaching
// Options.Deadline/MaxRuntime) stops the run at the next round
// boundary, returning the best circuit so far with StopReason
// Cancelled or DeadlineExceeded.
func RunCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt core.Options) *core.Result {
	return core.RunSEALSCtx(ctx, orig, metric, errBound, opt)
}

// RunWithComparatorCtx is RunCtx with a caller-supplied comparator.
func RunWithComparatorCtx(ctx context.Context, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt core.Options, start time.Time) *core.Result {
	return core.RunSEALSWithComparatorCtx(ctx, orig, cmp, errBound, opt, start)
}

// SortCandidates stably orders LACs by the flows' candidate order
// (core.CandidateLess); its first element is the LAC a SEALS round
// applies.
func SortCandidates(cands []*lac.LAC) {
	sort.SliceStable(cands, func(i, j int) bool { return core.CandidateLess(cands[i], cands[j]) })
}
