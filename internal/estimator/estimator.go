// Package estimator implements batch error-increase estimation for
// candidate LACs, in the style of VECBEE [11] and SEALS [12]: a single
// reverse change-propagation pass per primary output yields, for every
// node, the mask of patterns on which a value flip at that node would
// propagate to the output. Combining these masks with each LAC's
// deviation mask gives the estimated output flips — and hence the
// estimated error — of every candidate without simulating candidate
// circuits.
//
// The propagation pass treats reconvergent paths independently (ORing
// path sensitivities), which is the standard fast approximation; an
// exact cone-resimulation mode is provided for validation and for the
// flow's accurate per-round evaluation.
//
// A candidate enters the estimate only through its deviation mask dv
// and the propagation masks at its target node, and several candidates
// share each target. So the per-output work is factored per distinct
// target: each output's mask at a target is folded once into that
// target's accumulator, and each candidate then costs O(words) plus the
// set bits of dv, whatever the output count. With diff_j the patterns
// on which output j of the current circuit differs from the reference
// and pm_j output j's mask at the target (nil counts as all-zero):
//
//   - ER: flip = OR_j(diff_j ^ pm_j) and anyDiff = OR_j diff_j; the
//     candidate errs on (anyDiff &^ dv) | (flip & dv).
//   - MHD: bit-sliced per-pattern counts A[p] = #{j : (diff_j ^ pm_j)[p]}
//     and D[p] = #{j : diff_j[p]}; the candidate's differing output
//     bits are D summed off dv plus A summed on dv.
//   - NMED, MRED, MaxED: X[p], the outputs flipped at pattern p, over
//     reach = OR_j pm_j; per target, each pattern's error change (or
//     error distance) under X[p]; per candidate, their sum (or max)
//     over dv & reach.
//
// Each identity holds bit by bit, so the estimates equal those of
// combining every (candidate, output) pair one by one, which the tests
// keep as the oracle. The per-output passes are mutually independent,
// so an Estimator shards them across workers (one propagator per shard)
// and merges the per-shard accumulators deterministically: bitwise OR
// for ER, integer sums for MHD, and disjoint output columns of the
// per-target mask table for the word-level metrics. Every merge is
// exactly associative and commutative, so the estimates are
// bit-identical at any worker count.
package estimator

import (
	"math/bits"
	"sort"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/obs"
	"accals/internal/par"
	"accals/internal/simulate"
)

// Estimator batch-estimates LAC error increases under a fixed worker
// budget, keeping per-worker propagators and scoring scratch, the
// candidate grouping and accumulator arenas alive across rounds so
// steady-state estimation allocates almost nothing. An Estimator is
// not safe for concurrent use; the flows serialize calls per round.
type Estimator struct {
	workers int
	props   []*propagator
	scorers []*wordScratch
	slabs   par.SlabPool

	devs    []simulate.Vec // per LAC, its deviation mask
	slot    []int          // per node, its index in targets; -1 otherwise
	targets []int          // the batch's distinct target nodes
	tidx    []int          // per LAC, its target's index in targets
	byT     []int          // LAC indices grouped by target
	tstart  []int          // per target, the start of its group in byT
	pmOff   []int          // word-level: offset of pms' vector in its shard's buffer
	pms     []simulate.Vec // word-level: output j's mask at target t at t*numPOs+j
}

// New returns an Estimator with the given worker budget (see
// par.Resolve: <= 0 means all CPUs, 1 means the sequential path).
func New(workers int) *Estimator {
	return &Estimator{workers: par.Resolve(workers)}
}

// Workers returns the resolved worker count.
func (e *Estimator) Workers() int { return e.workers }

// batch is the state one EstimateAllRec call shares with its
// per-metric kernels.
type batch struct {
	res    *simulate.Result
	cmp    *errmetric.Comparator
	lacs   []*lac.LAC
	curPOs []simulate.Vec
	curErr float64
	words  int
	numPOs int
	blocks int // propagation shards over the outputs
	rec    *obs.Recorder
}

// EstimateAllRec computes the estimated error increase ΔE for every
// candidate LAC and stores it in each LAC's DeltaE field. It returns
// the current error of g with respect to the comparator's reference.
// res must be the simulation of g under the comparator's pattern set.
// The batch runs under an estimate-phase span and the candidate count
// feeds the evaluated-LAC counter; rec may be nil. The per-output
// propagation passes are sharded across the Estimator's workers, and
// results are bit-identical at any worker count.
func (e *Estimator) EstimateAllRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	if len(lacs) == 0 {
		return curErr
	}

	words := res.Patterns.Words()
	// Deviation masks, computed once per LAC into one pooled slab.
	devSlab := e.slabs.Get(len(lacs) * words)
	e.devs = e.devs[:0]
	for i, l := range lacs {
		dv, _ := l.DeviationInto(devSlab[i*words:(i+1)*words], res)
		e.devs = append(e.devs, dv)
	}
	e.groupTargets(g, lacs)

	b := &batch{
		res: res, cmp: cmp, lacs: lacs, curPOs: curPOs, curErr: curErr,
		words: words, numPOs: g.NumPOs(), rec: rec,
		blocks: par.BlocksMin(e.workers, g.NumPOs(), minPOsPerShard),
	}
	e.ensureProps(b.blocks, g, res)
	switch cmp.Kind() {
	case errmetric.ER:
		e.estimateER(b)
	case errmetric.MHD:
		e.estimateMHD(b)
	default:
		e.estimateWord(b)
	}
	// Drop the views into pooled slabs so that an idle Estimator does
	// not keep them alive.
	clear(e.devs)
	e.slabs.Put(devSlab)
	return curErr
}

// groupTargets lists the batch's distinct target nodes, in order of
// first appearance, and indexes every LAC by its target.
func (e *Estimator) groupTargets(g *aig.Graph, lacs []*lac.LAC) {
	for len(e.slot) < g.NumNodes() {
		e.slot = append(e.slot, -1)
	}
	e.targets, e.tidx = e.targets[:0], e.tidx[:0]
	for _, l := range lacs {
		t := e.slot[l.Target]
		if t < 0 {
			t = len(e.targets)
			e.slot[l.Target] = t
			e.targets = append(e.targets, l.Target)
		}
		e.tidx = append(e.tidx, t)
	}
	for _, n := range e.targets {
		e.slot[n] = -1
	}
}

// diffInto sets dst to the patterns on which cur and exact differ and
// reports whether there are any.
func diffInto(dst, cur, exact simulate.Vec) bool {
	var any uint64
	for w := range dst {
		dst[w] = cur[w] ^ exact[w]
		any |= dst[w]
	}
	return any != 0
}

// estimateER scores the batch under ER. Each shard owns one arena row
// block: row 0 accumulates anyDiff over the shard's outputs and row
// 1+t the flip mask of target t. Rows merge by bitwise OR, which is
// order-independent, so the merged masks are exactly the sequential
// ones.
func (e *Estimator) estimateER(b *batch) {
	exact := b.cmp.ExactPOs()
	words := b.words
	stride := (len(e.targets) + 1) * words
	arena := e.slabs.Get(b.blocks * stride)
	e.runShards(b.blocks, b.numPOs, b.rec, func(shard, j0, j1 int) {
		prop := e.props[shard]
		acc := arena[shard*stride : (shard+1)*stride]
		clear(acc)
		diffJ := prop.scratchVec()
		for j := j0; j < j1; j++ {
			masks := prop.run(j)
			nz := diffInto(diffJ, b.curPOs[j], exact[j])
			if nz {
				for w, d := range diffJ {
					acc[w] |= d
				}
			}
			for t, n := range e.targets {
				flip := acc[(t+1)*words : (t+2)*words]
				pm := masks[n]
				if pm == nil {
					if nz {
						for w, d := range diffJ {
							flip[w] |= d
						}
					}
					continue
				}
				for w, d := range diffJ {
					flip[w] |= d ^ pm[w]
				}
			}
		}
	})
	acc := arena[:stride]
	for s := 1; s < b.blocks; s++ {
		for w, x := range arena[s*stride : (s+1)*stride] {
			acc[w] |= x
		}
	}
	anyDiff := acc[:words]
	n := float64(b.res.Patterns.NumPatterns())
	e.forLACs(b, words, func(i int) {
		flip := acc[(e.tidx[i]+1)*words:][:words]
		c := 0
		for w, dv := range e.devs[i] {
			c += bits.OnesCount64(anyDiff[w]&^dv | flip[w]&dv)
		}
		b.lacs[i].DeltaE = float64(c)/n - b.curErr
	})
	e.slabs.Put(arena)
}

// estimateMHD scores the batch under MHD, which is linear over
// outputs. Each shard owns per-pattern counters over its outputs,
// bit-sliced into k planes with k wide enough for its output count:
// counter 0 is D, the outputs that differ, and counter 1+t is A for
// target t, the outputs that differ once t flips. The shard then turns
// each A into A - D, in k+1 two's-complement planes, so that a LAC's
// shard count, sum(D) + sum over dv of (A - D), costs one popcount per
// plane word. Counts are exact in integers, and integer sums across
// shards are exact regardless of order.
func (e *Estimator) estimateMHD(b *batch) {
	exact := b.cmp.ExactPOs()
	words := b.words
	k := bits.Len(uint((b.numPOs + b.blocks - 1) / b.blocks))
	ctr := (k + 1) * words // words per counter, sign plane included
	stride := (len(e.targets) + 1) * ctr
	arena := e.slabs.Get(b.blocks * stride)
	sumD := make([]int64, b.blocks)
	e.runShards(b.blocks, b.numPOs, b.rec, func(shard, j0, j1 int) {
		prop := e.props[shard]
		acc := arena[shard*stride : (shard+1)*stride]
		clear(acc)
		d := acc[:ctr]
		diffJ := prop.scratchVec()
		for j := j0; j < j1; j++ {
			masks := prop.run(j)
			nz := diffInto(diffJ, b.curPOs[j], exact[j])
			if nz {
				addSliced(d, diffJ, nil)
			}
			for t, n := range e.targets {
				if pm := masks[n]; pm != nil || nz {
					addSliced(acc[(t+1)*ctr:(t+2)*ctr], diffJ, pm)
				}
			}
		}
		for t := range e.targets {
			subSliced(acc[(t+1)*ctr:(t+2)*ctr], d, k)
		}
		for i := 0; i < k; i++ {
			sumD[shard] += int64(simulate.PopCount(d[i*words:(i+1)*words])) << uint(i)
		}
	})
	denom := float64(b.res.Patterns.NumPatterns() * b.numPOs)
	e.forLACs(b, b.blocks*ctr, func(i int) {
		t := e.tidx[i] + 1
		total := int64(0)
		for s := 0; s < b.blocks; s++ {
			total += sumD[s]
			a := arena[s*stride+t*ctr:][:ctr]
			dvs := e.devs[i]
			for bit := 0; bit <= k; bit++ {
				ab := a[bit*words:][:len(dvs)]
				c := 0
				for w, dv := range dvs {
					c += bits.OnesCount64(ab[w] & dv)
				}
				if bit == k {
					total -= int64(c) << uint(bit)
				} else {
					total += int64(c) << uint(bit)
				}
			}
		}
		b.lacs[i].DeltaE = float64(total)/denom - b.curErr
	})
	e.slabs.Put(arena)
}

// forLACs calls score for every LAC index of the batch, sharded across
// the workers so that each shard carries at least minScoreWordOps
// word operations, at opsPerLAC per call.
func (e *Estimator) forLACs(b *batch, opsPerLAC int, score func(i int)) {
	n := len(b.lacs)
	par.For(par.BlocksMin(e.workers, n, minScoreWordOps/(opsPerLAC+1)), n, func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			score(i)
		}
	})
}

// addSliced adds the 0/1 vector x ^ m (m may be nil) into the
// bit-sliced counters ctr, laid out plane-major: ctr[i*len(x)+w] holds
// bit i of the count of each pattern of word w. The caller sizes ctr
// so that no count overflows. Carries rarely pass the low planes, so
// plane-major keeps the touched words contiguous.
func addSliced(ctr []uint64, x, m simulate.Vec) {
	words := len(x)
	for w, c := range x {
		if m != nil {
			c ^= m[w]
		}
		for i := w; c != 0; i += words {
			ctr[i], c = ctr[i]^c, ctr[i]&c
		}
	}
}

// subSliced replaces the k-plane unsigned bit-sliced counters a with
// a - d as k+1-plane two's-complement counters (plane k weighs -2^k).
// Both use addSliced's plane-major layout; a's plane k must be zero.
func subSliced(a, d []uint64, k int) {
	words := len(a) / (k + 1)
	for w := 0; w < words; w++ {
		var borrow uint64
		for i := 0; i <= k; i++ {
			x, y := a[i*words+w], d[i*words+w]
			a[i*words+w] = x ^ y ^ borrow
			borrow = ^x&y | ^(x^y)&borrow
		}
	}
}

// estimateWord scores the batch under a word-level metric (NMED, MRED
// or MaxED). The propagation shards copy each output's non-zero mask
// at every target into a pooled buffer indexed by the per-target table
// pms, owning disjoint output columns, so no merge is needed. Scoring
// then runs per target, sharded over targets: the outputs flipped at
// each reached pattern, and that pattern's error change or distance,
// are derived once and shared by the target's LACs.
func (e *Estimator) estimateWord(b *batch) {
	nt, numPOs, words := len(e.targets), b.numPOs, b.words
	e.pmOff = resize(e.pmOff, nt*numPOs)
	if cap(e.pms) < nt*numPOs {
		e.pms = make([]simulate.Vec, nt*numPOs)
	}
	e.pms = e.pms[:nt*numPOs]
	kept := make([][]uint64, b.blocks)
	e.runShards(b.blocks, numPOs, b.rec, func(shard, j0, j1 int) {
		prop := e.props[shard]
		buf := e.slabs.Get(prop.keptLen)[:0]
		for j := j0; j < j1; j++ {
			masks := prop.run(j)
			for t, n := range e.targets {
				off := -1
				if pm := masks[n]; pm != nil {
					off = len(buf)
					buf = append(buf, pm...)
					if !anySet(buf[off:]) {
						buf, off = buf[:off], -1
					}
				}
				e.pmOff[t*numPOs+j] = off
			}
		}
		kept[shard], prop.keptLen = buf, len(buf)
		for j := j0; j < j1; j++ {
			for t := 0; t < nt; t++ {
				var pm simulate.Vec
				if off := e.pmOff[t*numPOs+j]; off >= 0 {
					pm = buf[off : off+words : off+words]
				}
				e.pms[t*numPOs+j] = pm
			}
		}
	})

	e.groupByTarget()
	base := b.cmp.NewBaseEval(b.curPOs)
	maxed := b.cmp.Kind() == errmetric.MaxED
	blocks := par.BlocksMin(e.workers, nt, minScoreWordOps/(numPOs*words+1))
	for len(e.scorers) < blocks {
		e.scorers = append(e.scorers, &wordScratch{})
	}
	par.For(blocks, nt, func(shard, t0, t1 int) {
		sc := e.scorers[shard]
		sc.reset(words, maxed)
		for t := t0; t < t1; t++ {
			pms := e.pms[t*numPOs : (t+1)*numPOs]
			group := e.byT[e.tstart[t]:e.tstart[t+1]]
			clear(sc.reach)
			for _, pm := range pms {
				for w, m := range pm {
					sc.reach[w] |= m
				}
			}
			// Only patterns some LAC of the group deviates on matter.
			clear(sc.need)
			for _, i := range group {
				for w, dv := range e.devs[i] {
					sc.need[w] |= dv
				}
			}
			for w, r := range sc.reach {
				sc.need[w] &= r
			}
			spread(sc.x, pms, sc.need)
			if maxed {
				b.cmp.FlipDists(base, sc.need, sc.x, sc.dist)
			} else {
				b.cmp.FlipDeltas(base, sc.need, sc.x, sc.delta)
			}
			for _, i := range group {
				for w, dv := range e.devs[i] {
					sc.changed[w] = dv & sc.reach[w]
				}
				var score float64
				if maxed {
					score = b.cmp.MaxErrorWithDists(base, sc.changed, sc.dist)
				} else {
					score = b.cmp.ErrorWithDeltas(base, sc.changed, sc.delta)
				}
				b.lacs[i].DeltaE = score - b.curErr
			}
		}
	})
	clear(e.pms)
	for _, buf := range kept {
		e.slabs.Put(buf)
	}
}

// groupByTarget fills byT with the batch's LAC indices grouped by
// target (a counting sort on tidx), group t spanning
// byT[tstart[t]:tstart[t+1]].
func (e *Estimator) groupByTarget() {
	nt := len(e.targets)
	e.tstart = resize(e.tstart, nt+1)
	clear(e.tstart)
	for _, t := range e.tidx {
		e.tstart[t+1]++
	}
	for t := 0; t < nt; t++ {
		e.tstart[t+1] += e.tstart[t]
	}
	e.byT = resize(e.byT, len(e.tidx))
	for i, t := range e.tidx {
		e.byT[e.tstart[t]] = i
		e.tstart[t]++
	}
	// Each tstart[t] now holds group t's end; shift back to starts.
	copy(e.tstart[1:], e.tstart[:nt])
	e.tstart[0] = 0
}

// spread sets x[p], for every pattern p in need, to the outputs whose
// mask in pms (indexed by output; nil when none) has pattern p set,
// output j as bit j.
func spread(x []uint64, pms []simulate.Vec, need simulate.Vec) {
	for w, m := range need {
		if m == 0 {
			continue
		}
		xw := x[w<<6 : w<<6+64]
		clear(xw)
		for j, pm := range pms {
			if pm == nil {
				continue
			}
			for f := pm[w] & m; f != 0; f &= f - 1 {
				xw[bits.TrailingZeros64(f)] |= 1 << uint(j)
			}
		}
	}
}

// wordScratch is one word-level scoring shard's reusable buffers: the
// target's reach and needed-pattern masks, a LAC's changed patterns,
// and per-pattern flipped outputs with their error change (mean
// metrics) or distance (MaxED).
type wordScratch struct {
	reach, need, changed simulate.Vec
	x                    []uint64
	delta                []float64
	dist                 []uint64
}

// reset sizes the scratch for words-word pattern vectors.
func (sc *wordScratch) reset(words int, maxed bool) {
	sc.reach = resize(sc.reach, words)
	sc.need = resize(sc.need, words)
	sc.changed = resize(sc.changed, words)
	sc.x = resize(sc.x, words*64)
	if maxed {
		sc.dist = resize(sc.dist, words*64)
	} else {
		sc.delta = resize(sc.delta, words*64)
	}
}

// resize returns s with length n, reusing its backing array when large
// enough. Contents are unspecified.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// anySet reports whether any bit of v is set.
func anySet(v []uint64) bool {
	for _, w := range v {
		if w != 0 {
			return true
		}
	}
	return false
}

// Min-work-per-shard thresholds (see par.BlocksMin). Each per-output
// propagation shard owns a propagator whose mask pool spans the whole
// graph, so that footprint must amortize over at least a couple of
// outputs; word-level scoring shards are capped to carry at least
// minScoreWordOps 64-bit word operations so tiny candidate batches stop
// fanning out. Both caps are pure functions of the problem shape, never
// of the host, so shard boundaries stay reproducible.
const (
	minPOsPerShard   = 2
	minScoreWordOps  = 1 << 15
	minResimPerShard = 4
)

// runShards executes body over [0,n) split into the given number of
// blocks (at most the Estimator's workers; callers cap fan-out with
// par.BlocksMin), feeding per-shard timings to rec's estimate-phase
// histograms when instrumented.
func (e *Estimator) runShards(blocks, n int, rec *obs.Recorder, body func(shard, begin, end int)) {
	if rec != nil {
		t := par.ForTimed(blocks, n, body)
		rec.ObserveShards(obs.PhaseEstimate, t.Elapsed, t.Shards)
		return
	}
	par.For(blocks, n, body)
}

// ensureProps grows the per-shard propagator set to blocks entries and
// rebinds each to (g, res) for this round.
func (e *Estimator) ensureProps(blocks int, g *aig.Graph, res *simulate.Result) {
	for len(e.props) < blocks {
		e.props = append(e.props, &propagator{})
	}
	for s := 0; s < blocks; s++ {
		e.props[s].reset(g, res)
	}
}

// propagator computes per-PO change propagation masks with reusable
// buffers. Each estimation shard owns one propagator; reset rebinds it
// to the round's graph and simulation while keeping its retired
// vectors for reuse.
type propagator struct {
	g       *aig.Graph
	res     *simulate.Result
	words   int
	masks   []simulate.Vec // indexed by node; nil when untouched
	touched []int
	pool    []simulate.Vec
	scratch simulate.Vec
	keptLen int // word-level: words of target masks this shard last kept
}

// reset rebinds the propagator to a graph and its simulation, retiring
// live masks into the pool (or dropping every buffer when the word
// count changed).
func (p *propagator) reset(g *aig.Graph, res *simulate.Result) {
	for _, id := range p.touched {
		p.pool = append(p.pool, p.masks[id])
		p.masks[id] = nil
	}
	p.touched = p.touched[:0]
	words := res.Patterns.Words()
	if words != p.words {
		p.pool = p.pool[:0]
		p.scratch = nil
	}
	p.g, p.res, p.words = g, res, words
	if n := g.NumNodes(); cap(p.masks) >= n {
		p.masks = p.masks[:n]
	} else {
		p.masks = make([]simulate.Vec, n)
	}
}

// scratchVec returns the propagator's word-sized scratch vector
// (contents unspecified).
func (p *propagator) scratchVec() simulate.Vec {
	if len(p.scratch) != p.words {
		p.scratch = make(simulate.Vec, p.words)
	}
	return p.scratch
}

// alloc returns a zeroed vector, reusing retired buffers.
func (p *propagator) alloc() simulate.Vec {
	if n := len(p.pool); n > 0 {
		v := p.pool[n-1]
		p.pool = p.pool[:n-1]
		for w := range v {
			v[w] = 0
		}
		return v
	}
	return make(simulate.Vec, p.words)
}

// run computes, for primary output j, the mask per node of patterns on
// which flipping the node's value flips the output (single-pass
// approximation). The returned slice is valid until the next call.
func (p *propagator) run(j int) []simulate.Vec {
	// Reset state from the previous run.
	for _, id := range p.touched {
		p.pool = append(p.pool, p.masks[id])
		p.masks[id] = nil
	}
	p.touched = p.touched[:0]

	root := p.g.PO(j).Node()
	m := p.alloc()
	for w := range m {
		m[w] = ^uint64(0)
	}
	m[len(m)-1] &= p.res.Patterns.LastMask()
	p.masks[root] = m
	p.touched = append(p.touched, root)

	// Reverse topological sweep: node ids descend, and fanins always
	// have smaller ids, so a single descending pass propagates all
	// masks.
	for id := root; id > 0; id-- {
		pm := p.masks[id]
		if pm == nil || !p.g.IsAnd(id) {
			continue
		}
		n := p.g.NodeAt(id)
		p.propagateToFanin(pm, n.Fanin0, n.Fanin1)
		p.propagateToFanin(pm, n.Fanin1, n.Fanin0)
	}
	return p.masks
}

// propagateToFanin ORs into the mask of fanin `to` the patterns where a
// flip of `to` flips the AND output: those where the sibling input
// evaluates to 1 and the output flip itself propagates.
func (p *propagator) propagateToFanin(outMask simulate.Vec, to, sibling aig.Lit) {
	id := to.Node()
	if id == 0 {
		return
	}
	sv := p.res.NodeVals[sibling.Node()]
	m := p.masks[id]
	if m == nil {
		m = p.alloc()
		p.masks[id] = m
		p.touched = append(p.touched, id)
	}
	if sibling.IsCompl() {
		for w := range m {
			m[w] |= outMask[w] & ^sv[w]
		}
	} else {
		for w := range m {
			m[w] |= outMask[w] & sv[w]
		}
	}
}

// EstimateAllExactRec fills DeltaE for every candidate with its exact
// (pattern-set) error increase, by resimulating each candidate's
// fanout cone, under the estimate-phase span (rec may be nil). It is
// typically one to two orders of magnitude slower than EstimateAllRec
// and exists for validation and for the estimator ablation study.
// Workers shard the candidates; each score is computed independently
// from shared read-only state, so results are identical at any worker
// count.
func (e *Estimator) EstimateAllExactRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	n := len(lacs)
	e.runShards(par.BlocksMin(e.workers, n, minResimPerShard), n, rec, func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			newPOs := ResimulateWith(g, res, lacs[i])
			lacs[i].DeltaE = cmp.ErrorFromPOs(newPOs) - curErr
		}
	})
	return curErr
}

// MeasureEach returns, for each LAC, the measured error of the circuit
// with that LAC applied alone — the ground truth the run ledger pairs
// with each applied LAC's estimated increase. Sharded across LACs like
// EstimateAllExactRec; the base simulation is read-only, so shards
// share it safely.
func (e *Estimator) MeasureEach(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) []float64 {
	out := make([]float64, len(lacs))
	e.runShards(par.BlocksMin(e.workers, len(lacs), minResimPerShard), len(lacs), rec, func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			out[i] = cmp.ErrorFromPOs(ResimulateWith(g, res, lacs[i]))
		}
	})
	return out
}

// ExactDeltaE computes the exact (with respect to the pattern set)
// error increase of applying a single LAC, by resimulating the
// transitive fanout cone of the target with the LAC's new values.
func ExactDeltaE(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, l *lac.LAC) float64 {
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	newPOs := ResimulateWith(g, res, l)
	return cmp.ErrorFromPOs(newPOs) - curErr
}

// ResimulateWith returns the primary output vectors of g after applying
// the LAC, computed by resimulating only the target's transitive
// fanout cone.
func ResimulateWith(g *aig.Graph, res *simulate.Result, l *lac.LAC) []simulate.Vec {
	return ResimulateWithSet(g, res, []*lac.LAC{l})
}

// ResimulateWithSet returns the primary output vectors of g after
// simultaneously applying a set of conflict-free LACs, resimulating
// only the union of the targets' transitive fanout cones. The vectors
// are bit-identical to simulating lac.Apply(g, lacs): targets are
// overlaid in ascending id order and each replacement reads its SNs
// through the overlay, matching Rebuild's copy semantics when one
// LAC's SN lies in the fanout cone of another applied target. This is
// what lets the flows measure candidate sets without building and
// fully resimulating candidate circuits.
func ResimulateWithSet(g *aig.Graph, res *simulate.Result, lacs []*lac.LAC) []simulate.Vec {
	words := res.Patterns.Words()
	mask := res.Patterns.LastMask()
	if len(lacs) == 0 {
		return res.POValues(g)
	}
	byTarget := append([]*lac.LAC(nil), lacs...)
	sort.Slice(byTarget, func(i, j int) bool { return byTarget[i].Target < byTarget[j].Target })

	overlay := make(map[int]simulate.Vec, 64)
	value := func(id int) simulate.Vec {
		if v, ok := overlay[id]; ok {
			return v
		}
		return res.NodeVals[id]
	}

	// Sweep nodes from the first target up; only targets and nodes
	// with an affected fanin need recomputation. Unchanged values are
	// not stored, keeping the cone tight.
	k := 0
	for id := byTarget[0].Target; id < g.NumNodes(); id++ {
		if k < len(byTarget) && byTarget[k].Target == id {
			l := byTarget[k]
			k++
			nv := l.NewValueAt(make(simulate.Vec, words), mask, value)
			if !eq(nv, res.NodeVals[id]) {
				overlay[id] = nv
			}
			continue
		}
		if !g.IsAnd(id) {
			continue
		}
		n := g.NodeAt(id)
		_, a := overlay[n.Fanin0.Node()]
		_, b := overlay[n.Fanin1.Node()]
		if !a && !b {
			continue
		}
		v0, v1 := value(n.Fanin0.Node()), value(n.Fanin1.Node())
		out := make(simulate.Vec, words)
		c0, c1 := n.Fanin0.IsCompl(), n.Fanin1.IsCompl()
		for w := 0; w < words; w++ {
			x, y := v0[w], v1[w]
			if c0 {
				x = ^x
			}
			if c1 {
				y = ^y
			}
			out[w] = x & y
		}
		out[words-1] &= mask
		if eq(out, res.NodeVals[id]) {
			continue
		}
		overlay[id] = out
	}

	pos := make([]simulate.Vec, g.NumPOs())
	for i, lit := range g.POs() {
		v := value(lit.Node())
		if lit.IsCompl() {
			inv := make(simulate.Vec, words)
			for w := range inv {
				inv[w] = ^v[w]
			}
			inv[words-1] &= mask
			v = inv
		}
		pos[i] = v
	}
	return pos
}

func eq(a, b simulate.Vec) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}
