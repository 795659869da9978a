// Package seals is the single-selection baseline flow modelled on
// SEALS (Meng et al., DAC 2022), the baseline of the paper's Figs. 5-6
// and Table II: each round applies only the candidate LAC with the
// minimum estimated error increase (ties broken by larger area gain).
// The flow is core.RunSEALSCtx: it runs on core's round loop, so both
// flows share every other stage and measured speedups isolate the
// effect of multi-LAC selection. This package keeps the candidate
// order a SEALS round picks from.
package seals

import (
	"sort"

	"accals/internal/core"
	"accals/internal/lac"
)

// SortCandidates stably orders LACs by the flows' candidate order
// (core.CandidateLess); its first element is the LAC a SEALS round
// applies.
func SortCandidates(cands []*lac.LAC) {
	sort.SliceStable(cands, func(i, j int) bool { return core.CandidateLess(cands[i], cands[j]) })
}
