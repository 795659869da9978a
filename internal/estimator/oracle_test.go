package estimator

import (
	"math/bits"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// estimatePerLAC is the unfactored batch estimate the Estimator
// replaced, kept as its test oracle: every candidate combines its
// deviation mask with every output's propagation mask at its target,
// one (LAC, output) pair at a time, and the word-level metrics score a
// per-output flip-mask vector per LAC through ErrorWithFlips and
// MaxErrorWithFlips. It runs sequentially and stores each LAC's
// estimate in DeltaE, returning the current error.
func estimatePerLAC(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC) float64 {
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	if len(lacs) == 0 {
		return curErr
	}
	words := res.Patterns.Words()
	numPOs := g.NumPOs()
	devs := make([]simulate.Vec, len(lacs))
	for i, l := range lacs {
		devs[i], _ = l.DeviationInto(make(simulate.Vec, words), res)
	}
	prop := &propagator{}
	prop.reset(g, res)
	exact := cmp.ExactPOs()
	diffJ := make(simulate.Vec, words)

	switch cmp.Kind() {
	case errmetric.ER:
		// Per LAC, the mask of patterns on which any output differs
		// from the exact circuit.
		rows := make([]simulate.Vec, len(lacs))
		for i := range rows {
			rows[i] = make(simulate.Vec, words)
		}
		for j := 0; j < numPOs; j++ {
			masks := prop.run(j)
			for w := 0; w < words; w++ {
				diffJ[w] = curPOs[j][w] ^ exact[j][w]
			}
			for i, l := range lacs {
				row := rows[i]
				pm := masks[l.Target]
				if pm == nil {
					for w := 0; w < words; w++ {
						row[w] |= diffJ[w]
					}
					continue
				}
				dv := devs[i]
				for w := 0; w < words; w++ {
					row[w] |= diffJ[w] ^ (pm[w] & dv[w])
				}
			}
		}
		n := float64(res.Patterns.NumPatterns())
		for i, l := range lacs {
			l.DeltaE = float64(simulate.PopCount(rows[i]))/n - curErr
		}

	case errmetric.MHD:
		// Per LAC, the number of differing output bits, summed over
		// outputs.
		counts := make([]uint64, len(lacs))
		for j := 0; j < numPOs; j++ {
			masks := prop.run(j)
			baseCount := 0
			for w := 0; w < words; w++ {
				diffJ[w] = curPOs[j][w] ^ exact[j][w]
				baseCount += bits.OnesCount64(diffJ[w])
			}
			for i, l := range lacs {
				pm := masks[l.Target]
				if pm == nil {
					counts[i] += uint64(baseCount)
					continue
				}
				dv := devs[i]
				c := 0
				for w := 0; w < words; w++ {
					c += bits.OnesCount64(diffJ[w] ^ (pm[w] & dv[w]))
				}
				counts[i] += uint64(c)
			}
		}
		denom := float64(res.Patterns.NumPatterns() * numPOs)
		for i, l := range lacs {
			l.DeltaE = float64(counts[i])/denom - curErr
		}

	default:
		// Word-level metrics: per LAC, one flip mask per output (nil
		// when the LAC cannot flip that output), scored incrementally
		// against the base circuit.
		flips := make([][]simulate.Vec, len(lacs))
		for i := range flips {
			flips[i] = make([]simulate.Vec, numPOs)
		}
		for j := 0; j < numPOs; j++ {
			masks := prop.run(j)
			for i, l := range lacs {
				pm := masks[l.Target]
				if pm == nil {
					continue
				}
				var f simulate.Vec
				for w := 0; w < words; w++ {
					b := pm[w] & devs[i][w]
					if b != 0 && f == nil {
						f = make(simulate.Vec, words)
					}
					if f != nil {
						f[w] = b
					}
				}
				flips[i][j] = f
			}
		}
		base := cmp.NewBaseEval(curPOs)
		score := cmp.ErrorWithFlips
		if cmp.Kind() == errmetric.MaxED {
			score = cmp.MaxErrorWithFlips
		}
		for i, l := range lacs {
			l.DeltaE = score(base, flips[i]) - curErr
		}
	}
	return curErr
}
