// Package errmetric computes the statistical error metrics used in the
// AccALS paper: error rate (ER), normalized mean error distance (NMED)
// and mean relative error distance (MRED), plus the maximum error
// distance (MaxED) used by SAT-certified synthesis. All metrics are
// evaluated against a fixed pattern set (exhaustive or Monte-Carlo)
// produced by package simulate, matching the paper's assumption of
// uniformly distributed inputs; MaxED over sampled patterns is a lower
// bound on the true worst case, which package maxerr certifies exactly.
//
// Two structural limits apply to every metric's reference circuit,
// enforced by Validate: it must have at least one primary output (a
// zero-output circuit has no defined error and would otherwise divide
// by zero into NaN; rejected with runctl.ErrNoOutputs), and the
// word-level metrics (NMED/MRED/MaxED), which read the outputs as one
// unsigned integer with PO 0 the least significant bit, support at
// most 63 outputs (rejected with runctl.ErrTooManyOutputs).
package errmetric

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"accals/internal/aig"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// Kind identifies a statistical error metric.
type Kind int

// Supported metrics.
const (
	// ER is the probability that the approximate outputs differ from
	// the exact outputs in at least one bit.
	ER Kind = iota
	// NMED is the mean error distance normalised by the maximum output
	// value 2^m - 1, treating the outputs as an unsigned integer with
	// PO 0 the least significant bit.
	NMED
	// MRED is the mean of |approx - exact| / max(exact, 1).
	MRED
	// MHD is the mean Hamming distance: the average fraction of
	// output bits that differ. Unlike NMED/MRED it applies to
	// circuits of any output width (no binary-number interpretation).
	MHD
	// MaxED is the maximum error distance max |approx - exact| over
	// the pattern set, treating the outputs as an unsigned integer.
	// Unlike the mean metrics it is an absolute (un-normalised)
	// quantity, and a sampled evaluation is only a lower bound on the
	// true worst case — package maxerr certifies the exact bound with
	// a SAT query over an error miter.
	MaxED
)

// String returns the metric's conventional abbreviation.
func (k Kind) String() string {
	switch k {
	case ER:
		return "ER"
	case NMED:
		return "NMED"
	case MRED:
		return "MRED"
	case MHD:
		return "MHD"
	case MaxED:
		return "MaxED"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Parse maps a metric name (er, nmed, mred, mhd or maxed, in any
// case) onto its Kind.
func Parse(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "er":
		return ER, nil
	case "nmed":
		return NMED, nil
	case "mred":
		return MRED, nil
	case "mhd":
		return MHD, nil
	case "maxed":
		return MaxED, nil
	}
	return 0, fmt.Errorf("unknown metric %q (want er, nmed, mred, mhd or maxed)", name)
}

// IsWordLevel reports whether the metric interprets the outputs as a
// binary number (true for NMED, MRED and MaxED), limiting the
// reference circuit to 63 outputs.
func (k Kind) IsWordLevel() bool { return k == NMED || k == MRED || k == MaxED }

// Comparator evaluates the error of approximate circuits against a
// fixed reference circuit under a fixed pattern set. Building a
// Comparator simulates the reference once; each Error call simulates
// only the candidate.
//
// A Comparator is immutable after construction: every evaluation
// method (Error, ErrorFromPOs, ErrorFromPOsXor, NewBaseEval and the
// incremental *Flips, *Deltas and *Dists scorers) only reads the
// cached reference state, so a single Comparator may be shared by
// concurrent goroutines — the parallel engine relies on this to
// measure duel candidates simultaneously.
type Comparator struct {
	kind     Kind
	patterns *simulate.Patterns
	numPOs   int
	exactPOs []simulate.Vec
	// exactVals caches the per-pattern exact output value for the
	// word-level metrics.
	exactVals []uint64
	// maxVal is 2^m - 1 as a float, the NMED normalisation constant.
	maxVal float64
}

// NewComparator simulates the reference graph ref under the pattern set
// and returns a comparator for the chosen metric. For word-level
// metrics the reference must have at most 63 outputs; violations panic
// with an error wrapping runctl.ErrTooManyOutputs (use
// NewComparatorChecked for an error-returning variant).
func NewComparator(kind Kind, ref *aig.Graph, p *simulate.Patterns) *Comparator {
	if err := Validate(kind, ref); err != nil {
		panic(err)
	}
	res := simulate.MustRun(ref, p)
	c := &Comparator{
		kind:     kind,
		patterns: p,
		numPOs:   ref.NumPOs(),
		exactPOs: res.POValues(ref),
	}
	if kind.IsWordLevel() {
		// Exact integer arithmetic: math.Pow(2, 63)-1 rounds to 2^63
		// in float64, which would skew the NMED normalisation by one
		// ULP-boundary at the 63-output limit.
		c.maxVal = float64(uint64(math.MaxUint64) >> uint(64-ref.NumPOs()))
		c.exactVals = extractValues(c.exactPOs, p)
	}
	return c
}

// Validate reports whether the reference circuit is usable with the
// metric. Every metric needs at least one output (rejected with an
// error wrapping runctl.ErrNoOutputs: a zero-output circuit has no
// defined error, and the mean metrics would divide by zero into NaN).
// The word-level metrics (NMED/MRED/MaxED) interpret the outputs as
// one unsigned integer and are limited to 63 outputs (the returned
// error wraps runctl.ErrTooManyOutputs).
func Validate(kind Kind, ref *aig.Graph) error {
	if ref.NumPOs() == 0 {
		return fmt.Errorf("errmetric: %v undefined for circuit %q with no outputs: %w", kind, ref.Name, runctl.ErrNoOutputs)
	}
	if kind.IsWordLevel() && ref.NumPOs() > 63 {
		return fmt.Errorf("errmetric: %v limited to 63 outputs, circuit %q has %d: %w", kind, ref.Name, ref.NumPOs(), runctl.ErrTooManyOutputs)
	}
	return nil
}

// ValidateBound reports whether bound is a usable error bound for the
// metric: the mean metrics take a fraction in (0, 1], MaxED an
// absolute non-negative integer error distance. The returned error
// wraps runctl.ErrInvalidBound.
func ValidateBound(kind Kind, bound float64) error {
	if math.IsNaN(bound) {
		return fmt.Errorf("errmetric: %v bound is NaN: %w", kind, runctl.ErrInvalidBound)
	}
	if kind == MaxED {
		if bound < 0 || bound != math.Trunc(bound) || bound > float64(math.MaxUint64>>1) {
			return fmt.Errorf("errmetric: %v bound must be a non-negative integer error distance, got %v: %w", kind, bound, runctl.ErrInvalidBound)
		}
		return nil
	}
	if !(bound > 0 && bound <= 1) {
		return fmt.Errorf("errmetric: %v bound must be in (0, 1], got %v: %w", kind, bound, runctl.ErrInvalidBound)
	}
	return nil
}

// NewComparatorChecked is NewComparator with an error return instead of
// a panic on invalid (kind, reference) combinations.
func NewComparatorChecked(kind Kind, ref *aig.Graph, p *simulate.Patterns) (c *Comparator, err error) {
	defer runctl.Guard(&err)
	if err := Validate(kind, ref); err != nil {
		return nil, err
	}
	return NewComparator(kind, ref, p), nil
}

// Kind returns the metric the comparator evaluates.
func (c *Comparator) Kind() Kind { return c.kind }

// Patterns returns the pattern set the comparator evaluates under.
func (c *Comparator) Patterns() *simulate.Patterns { return c.patterns }

// ExactPOs returns the reference circuit's simulated output vectors.
func (c *Comparator) ExactPOs() []simulate.Vec { return c.exactPOs }

// Error simulates the approximate graph and returns its error with
// respect to the reference. The graph must have the same PI/PO counts
// as the reference.
func (c *Comparator) Error(approx *aig.Graph) float64 {
	if approx.NumPOs() != c.numPOs {
		panic(fmt.Errorf("errmetric: approximate circuit has %d POs, reference has %d: %w", approx.NumPOs(), c.numPOs, runctl.ErrInterfaceMismatch))
	}
	res := simulate.MustRun(approx, c.patterns)
	return c.ErrorFromPOs(res.POValues(approx))
}

// ErrorFromPOs returns the error of the given simulated output vectors
// with respect to the reference.
func (c *Comparator) ErrorFromPOs(approxPOs []simulate.Vec) float64 {
	return c.ErrorFromPOsXor(approxPOs, nil)
}

// ErrorFromPOsXor returns the error of base XOR flip with respect to
// the reference, where flip[j] may be nil to indicate no flipped
// patterns on output j. This is the estimator's fast path: it avoids
// materialising the flipped output vectors.
func (c *Comparator) ErrorFromPOsXor(base, flip []simulate.Vec) float64 {
	n := c.patterns.NumPatterns()
	words := c.patterns.Words()
	if c.kind == MHD {
		// Mean Hamming distance is linear over outputs: sum the
		// per-output diff counts.
		diffBits := 0
		buf := make(simulate.Vec, words)
		for j := 0; j < c.numPOs; j++ {
			e := c.exactPOs[j]
			b := base[j]
			if flip != nil && flip[j] != nil {
				f := flip[j]
				for w := 0; w < words; w++ {
					buf[w] = (b[w] ^ f[w]) ^ e[w]
				}
			} else {
				for w := 0; w < words; w++ {
					buf[w] = b[w] ^ e[w]
				}
			}
			buf[words-1] &= c.patterns.LastMask()
			diffBits += simulate.PopCount(buf)
		}
		return float64(diffBits) / float64(n*c.numPOs)
	}
	if c.kind == ER {
		diffCount := 0
		anyDiff := make(simulate.Vec, words)
		for j := 0; j < c.numPOs; j++ {
			e := c.exactPOs[j]
			b := base[j]
			if flip != nil && flip[j] != nil {
				f := flip[j]
				for w := 0; w < words; w++ {
					anyDiff[w] |= (b[w] ^ f[w]) ^ e[w]
				}
			} else {
				for w := 0; w < words; w++ {
					anyDiff[w] |= b[w] ^ e[w]
				}
			}
		}
		anyDiff[words-1] &= c.patterns.LastMask()
		diffCount = simulate.PopCount(anyDiff)
		return float64(diffCount) / float64(n)
	}

	// Word-level metrics: walk patterns, assembling the approximate
	// output value per pattern. NMED/MRED accumulate a mean; MaxED
	// keeps the largest error distance seen.
	sum := 0.0
	var maxDiff uint64
	row := make([]uint64, c.numPOs)
	for w := 0; w < words; w++ {
		for j := 0; j < c.numPOs; j++ {
			v := base[j][w]
			if flip != nil && flip[j] != nil {
				v ^= flip[j][w]
			}
			row[j] = v
		}
		lim := 64
		if w == words-1 && n&63 != 0 {
			lim = n & 63
		}
		for b := 0; b < lim; b++ {
			var av uint64
			for j := 0; j < c.numPOs; j++ {
				av |= (row[j] >> uint(b) & 1) << uint(j)
			}
			ev := c.exactVals[w<<6+b]
			if c.kind == MaxED {
				if d := distance(av, ev); d > maxDiff {
					maxDiff = d
				}
				continue
			}
			sum += c.contribution(av, ev)
		}
	}
	if c.kind == MaxED {
		return float64(maxDiff)
	}
	return sum / float64(n)
}

// BaseEval caches the per-pattern values and error of one approximate
// circuit, so that many flip-mask variants of it (one per candidate
// LAC) can be scored incrementally: only the patterns an output flip
// touches are re-evaluated.
type BaseEval struct {
	// POs are the base circuit's simulated outputs.
	POs []simulate.Vec
	// Vals are the per-pattern output values (word-level metrics only).
	Vals []uint64
	// Err is the base circuit's error.
	Err float64
	// wordMax caches, per 64-pattern word, the base circuit's largest
	// error distance (MaxED only): MaxErrorWithFlips skips the walk of
	// any word a candidate's flips do not touch.
	wordMax []uint64
}

// NewBaseEval prepares an incremental evaluator for the given
// simulated outputs.
func (c *Comparator) NewBaseEval(pos []simulate.Vec) *BaseEval {
	b := &BaseEval{POs: pos}
	if c.kind.IsWordLevel() {
		b.Vals = extractValues(pos, c.patterns)
	}
	if c.kind == MaxED {
		words := c.patterns.Words()
		b.wordMax = make([]uint64, words)
		var g uint64
		for w := 0; w < words; w++ {
			m := c.wordMaxDiff(b.Vals, w, nil, nil)
			b.wordMax[w] = m
			if m > g {
				g = m
			}
		}
		b.Err = float64(g)
		return b
	}
	b.Err = c.ErrorFromPOs(pos)
	return b
}

// distance returns one pattern's error distance |approx - exact|.
func distance(av, ev uint64) uint64 {
	if av > ev {
		return av - ev
	}
	return ev - av
}

// contribution returns one pattern's error contribution for the mean
// word-level metrics. It and distance are the only statement of the
// per-pattern metric formula; every word-level evaluation path calls
// them.
func (c *Comparator) contribution(av, ev uint64) float64 {
	diff := distance(av, ev)
	switch c.kind {
	case NMED:
		return float64(diff) / c.maxVal
	case MRED:
		den := float64(ev)
		if den < 1 {
			den = 1
		}
		return float64(diff) / den
	}
	return 0
}

// flipSampleBudget bounds the number of flipped patterns evaluated
// exactly per candidate; larger flip sets are scored on a strided
// word sample and scaled. The budget is set high enough that every
// candidate is exact at the default pattern counts (sampling can bias
// the ranking of constant LACs, whose flips are many but individually
// cheap under NMED); it only engages as a guard on very large
// Monte-Carlo sample sizes.
const flipSampleBudget = 16384

// sampleStride returns the word stride at which a flip set of total
// changed patterns is sampled: 1 (every word) within flipSampleBudget.
func sampleStride(total int) int {
	if total > flipSampleBudget {
		return (total + flipSampleBudget - 1) / flipSampleBudget
	}
	return 1
}

// ErrorWithFlips returns the error of base XOR flips (flip[j] may be
// nil), touching only flipped patterns. It must only be used with the
// mean word-level metrics (NMED/MRED): it accumulates a sum delta,
// which is meaningless for a max — MaxED uses MaxErrorWithFlips. The
// ER estimator has its own batched fast path.
func (c *Comparator) ErrorWithFlips(b *BaseEval, flips []simulate.Vec) float64 {
	if !c.kind.IsWordLevel() || c.kind == MaxED {
		panic("errmetric: ErrorWithFlips requires a mean word-level metric (NMED/MRED)")
	}
	// Flipped output list and the union of changed patterns.
	var fj []int
	for j, f := range flips {
		if f != nil {
			fj = append(fj, j)
		}
	}
	if len(fj) == 0 {
		return b.Err
	}
	words := c.patterns.Words()
	changed := make(simulate.Vec, words)
	total := 0
	for w := 0; w < words; w++ {
		var m uint64
		for _, j := range fj {
			m |= flips[j][w]
		}
		changed[w] = m
		total += bits.OnesCount64(m)
	}
	if total == 0 {
		return b.Err
	}
	stride := sampleStride(total)

	delta := 0.0
	sampled := 0
	for w := 0; w < words; w += stride {
		m := changed[w]
		sampled += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			bit := m & -m
			pat := w<<6 + bits.TrailingZeros64(bit)
			av := b.Vals[pat]
			av2 := av
			for _, j := range fj {
				if flips[j][w]&bit != 0 {
					av2 ^= 1 << uint(j)
				}
			}
			ev := c.exactVals[pat]
			delta += c.contribution(av2, ev) - c.contribution(av, ev)
		}
	}
	if sampled == 0 {
		return b.Err
	}
	delta *= float64(total) / float64(sampled)
	return b.Err + delta/float64(c.patterns.NumPatterns())
}

// MaxErrorWithFlips returns the MaxED of base XOR flips (flip[j] may
// be nil). A running maximum cannot be updated with a sum delta the
// way ErrorWithFlips does, so this is a max-merge instead: words the
// flips do not touch contribute their cached base maximum
// (BaseEval.wordMax) and only touched words are re-walked.
func (c *Comparator) MaxErrorWithFlips(b *BaseEval, flips []simulate.Vec) float64 {
	if c.kind != MaxED {
		panic("errmetric: MaxErrorWithFlips requires the MaxED metric")
	}
	var fj []int
	for j, f := range flips {
		if f != nil {
			fj = append(fj, j)
		}
	}
	if len(fj) == 0 {
		return b.Err
	}
	words := c.patterns.Words()
	var g uint64
	for w := 0; w < words; w++ {
		var m uint64
		for _, j := range fj {
			m |= flips[j][w]
		}
		if w == words-1 {
			m &= c.patterns.LastMask()
		}
		if m == 0 {
			if b.wordMax[w] > g {
				g = b.wordMax[w]
			}
			continue
		}
		if d := c.wordMaxDiff(b.Vals, w, fj, flips); d > g {
			g = d
		}
	}
	return float64(g)
}

// FlipDeltas sets delta[p], for every pattern p in pats, to the change
// in pattern p's error contribution when the base circuit's output
// bits x[p] flip: the per-pattern term ErrorWithFlips sums. Like
// ErrorWithFlips it requires a mean word-level metric (NMED/MRED).
// Entries of delta outside pats are left untouched.
func (c *Comparator) FlipDeltas(b *BaseEval, pats simulate.Vec, x []uint64, delta []float64) {
	if !c.kind.IsWordLevel() || c.kind == MaxED {
		panic("errmetric: FlipDeltas requires a mean word-level metric (NMED/MRED)")
	}
	for w, m := range pats {
		for ; m != 0; m &= m - 1 {
			pat := w<<6 + bits.TrailingZeros64(m)
			av, ev := b.Vals[pat], c.exactVals[pat]
			delta[pat] = c.contribution(av^x[pat], ev) - c.contribution(av, ev)
		}
	}
}

// ErrorWithDeltas returns the error of the base circuit with the
// patterns in changed flipped, where delta[p] is pattern p's FlipDeltas
// term. It samples the same words as ErrorWithFlips and sums the same
// terms in the same order, so on the equivalent flip masks the two are
// bit-identical; it only saves re-deriving each term, which lets
// candidates that flip the same output bits share them.
func (c *Comparator) ErrorWithDeltas(b *BaseEval, changed simulate.Vec, delta []float64) float64 {
	total := simulate.PopCount(changed)
	if total == 0 {
		return b.Err
	}
	stride := sampleStride(total)
	sum := 0.0
	sampled := 0
	for w := 0; w < len(changed); w += stride {
		m := changed[w]
		sampled += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			sum += delta[w<<6+bits.TrailingZeros64(m)]
		}
	}
	if sampled == 0 {
		return b.Err
	}
	sum *= float64(total) / float64(sampled)
	return b.Err + sum/float64(c.patterns.NumPatterns())
}

// FlipDists sets dist[p], for every pattern p in pats, to pattern p's
// error distance when the base circuit's output bits x[p] flip (MaxED).
// Entries of dist outside pats are left untouched.
func (c *Comparator) FlipDists(b *BaseEval, pats simulate.Vec, x []uint64, dist []uint64) {
	if c.kind != MaxED {
		panic("errmetric: FlipDists requires the MaxED metric")
	}
	for w, m := range pats {
		for ; m != 0; m &= m - 1 {
			pat := w<<6 + bits.TrailingZeros64(m)
			dist[pat] = distance(b.Vals[pat]^x[pat], c.exactVals[pat])
		}
	}
}

// MaxErrorWithDists returns the MaxED of the base circuit with the
// patterns in changed at the error distances dist (from FlipDists) and
// every other pattern at its base distance. Like MaxErrorWithFlips it
// takes untouched words' maxima from the BaseEval cache, so it is
// exactly MaxErrorWithFlips on the equivalent flip masks.
func (c *Comparator) MaxErrorWithDists(b *BaseEval, changed simulate.Vec, dist []uint64) float64 {
	n := c.patterns.NumPatterns()
	words := len(changed)
	var g uint64
	for w, m := range changed {
		lim := 64
		if w == words-1 {
			m &= c.patterns.LastMask()
			if n&63 != 0 {
				lim = n & 63
			}
		}
		if m == 0 {
			if b.wordMax[w] > g {
				g = b.wordMax[w]
			}
			continue
		}
		for bit := 0; bit < lim; bit++ {
			pat := w<<6 + bit
			var d uint64
			if m>>uint(bit)&1 != 0 {
				d = dist[pat]
			} else {
				d = distance(b.Vals[pat], c.exactVals[pat])
			}
			if d > g {
				g = d
			}
		}
	}
	return float64(g)
}

// wordMaxDiff returns the largest |approx - exact| over the patterns
// of word w, with the candidate's flips applied when fj is non-empty.
func (c *Comparator) wordMaxDiff(vals []uint64, w int, fj []int, flips []simulate.Vec) uint64 {
	n := c.patterns.NumPatterns()
	lim := 64
	if w == c.patterns.Words()-1 && n&63 != 0 {
		lim = n & 63
	}
	var g uint64
	for b := 0; b < lim; b++ {
		pat := w<<6 + b
		av := vals[pat]
		for _, j := range fj {
			if flips[j][w]>>uint(b)&1 != 0 {
				av ^= 1 << uint(j)
			}
		}
		if d := distance(av, c.exactVals[pat]); d > g {
			g = d
		}
	}
	return g
}

// extractValues converts packed PO vectors into one unsigned integer
// per pattern (PO 0 = least significant bit).
func extractValues(pos []simulate.Vec, p *simulate.Patterns) []uint64 {
	n := p.NumPatterns()
	vals := make([]uint64, n)
	for j, v := range pos {
		for pat := 0; pat < n; pat++ {
			if v[pat>>6]&(1<<(uint(pat)&63)) != 0 {
				vals[pat] |= 1 << uint(j)
			}
		}
	}
	return vals
}
