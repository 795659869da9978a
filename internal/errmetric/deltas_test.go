package errmetric

import (
	"math"
	"math/rand"
	"testing"

	"accals/internal/circuits"
	"accals/internal/simulate"
)

// TestSharedTermScorersMatchFlips cross-checks ErrorWithDeltas and
// MaxErrorWithDists, which read per-pattern terms precomputed by
// FlipDeltas and FlipDists, against ErrorWithFlips and
// MaxErrorWithFlips on random flip masks: the results must be equal to
// the bit, including flip sets above the sample budget.
func TestSharedTermScorersMatchFlips(t *testing.T) {
	g := circuits.ArrayMult(8)
	for _, n := range []int{1000, 1 << 16} {
		p := simulate.NewPatterns(g.NumPIs(), n, 3)
		pos := simulate.MustRun(g, p).POValues(g)
		rng := rand.New(rand.NewSource(int64(n)))
		// A base circuit off the reference by sparse noise.
		for j := range pos {
			pos[j] = append(simulate.Vec(nil), pos[j]...)
			for w := range pos[j] {
				pos[j][w] ^= rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			pos[j][len(pos[j])-1] &= p.LastMask()
		}
		for _, kind := range []Kind{NMED, MRED, MaxED} {
			cmp := NewComparator(kind, g, p)
			base := cmp.NewBaseEval(pos)
			for trial := 0; trial < 20; trial++ {
				// Flip masks of one candidate: a random deviation
				// mask ANDed with random per-output reach masks.
				dv := make(simulate.Vec, p.Words())
				for w := range dv {
					dv[w] = rng.Uint64()
					if trial%2 == 0 {
						dv[w] &= rng.Uint64() & rng.Uint64()
					}
				}
				dv[len(dv)-1] &= p.LastMask()
				flips := make([]simulate.Vec, len(pos))
				changed := make(simulate.Vec, p.Words())
				x := make([]uint64, p.Words()*64)
				for j := range flips {
					if rng.Intn(3) == 0 {
						continue
					}
					flips[j] = make(simulate.Vec, p.Words())
					for w := range dv {
						flips[j][w] = dv[w] & rng.Uint64()
						changed[w] |= flips[j][w]
						for b := 0; b < 64; b++ {
							if flips[j][w]>>uint(b)&1 != 0 {
								x[w<<6+b] |= 1 << uint(j)
							}
						}
					}
				}
				var got, want float64
				if kind == MaxED {
					dist := make([]uint64, len(x))
					cmp.FlipDists(base, changed, x, dist)
					got, want = cmp.MaxErrorWithDists(base, changed, dist), cmp.MaxErrorWithFlips(base, flips)
				} else {
					delta := make([]float64, len(x))
					cmp.FlipDeltas(base, changed, x, delta)
					got, want = cmp.ErrorWithDeltas(base, changed, delta), cmp.ErrorWithFlips(base, flips)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v n=%d trial %d: shared terms %v, flips %v", kind, n, trial, got, want)
				}
			}
		}
	}
}
