package lac

import (
	"math/bits"
	"sort"

	"accals/internal/aig"
	"accals/internal/par"
	"accals/internal/simulate"
)

// Config controls candidate LAC generation.
type Config struct {
	// MaxDivisors bounds the divisor pool collected per target node.
	MaxDivisors int
	// MaxPerTarget bounds the number of candidates kept per target,
	// ranked by simulation deviation (a cheap proxy for error).
	MaxPerTarget int
	// MinGain is the minimum estimated AIG-node saving a candidate
	// must achieve to be kept.
	MinGain int
	// EnableResub enables ALSRAC-style two-input resubstitution
	// candidates in addition to constants and wires. Off by default:
	// with the fast change-propagation estimator, resubstitution
	// candidates (whose substitute nodes correlate strongly with the
	// target) are mis-ranked often enough to cost more quality than
	// their richer function space buys, at ~3x the generation cost.
	// See the resub ablation benchmark.
	EnableResub bool
	// WindowDepth bounds the TFI depth explored when collecting
	// divisors.
	WindowDepth int
	// GlobalWires adds up to this many SASIMI-style wire candidates
	// per target found by global signature matching (signals anywhere
	// earlier in the circuit whose simulated values nearly coincide
	// with the target's, in either phase). 0 uses the default; set
	// GlobalWiresOff (or any negative value) to disable.
	GlobalWires int
	// EnableResub3 adds three-input resubstitution candidates (MUX
	// and majority over divisor triples), a restricted form of
	// ALSRAC's k-input resubstitution. Opt-in, for the same reason as
	// EnableResub (and the enumeration is cubic in the divisor count).
	EnableResub3 bool
	// Resub3Divisors bounds the divisor subset used for triples
	// (defaults to 8; the cubic enumeration is the cost driver).
	Resub3Divisors int
	// Workers bounds the goroutines sharding per-target generation.
	// 0 (and any value ≤ 0) uses all available CPUs; 1 forces the
	// sequential path. The output is identical for every worker count.
	Workers int
}

// GlobalWiresOff disables global signature-matched wire candidates.
// Zero cannot mean "off": the zero value of Config has always meant
// "use the defaults", so a caller zeroing GlobalWires silently got the
// default quota back. Callers that want the feature off must pass this
// sentinel (any negative value works; this constant is the readable
// spelling).
const GlobalWiresOff = -1

// DefaultConfig returns the generation parameters used by the
// experiments, scaled by circuit size like the paper's r_ref/r_sel.
func DefaultConfig(numAnds int) Config {
	cfg := Config{
		MaxDivisors:    12,
		MaxPerTarget:   6,
		MinGain:        1,
		EnableResub:    false, // see the field comment and the resub ablation
		WindowDepth:    4,
		GlobalWires:    4,
		EnableResub3:   false, // opt-in: cubic enumeration; see Config.EnableResub3
		Resub3Divisors: 8,
	}
	if numAnds >= 5000 {
		cfg.MaxDivisors = 8
		cfg.MaxPerTarget = 4
	}
	return cfg
}

// AIG-node costs of the three-input replacement functions (MUX is
// two ANDs plus an OR; MAJ is three ANDs plus two ORs).
const (
	muxCost = 3
	majCost = 5
)

// xorCost is the AIG-node cost of realising a two-input XOR.
const xorCost = 3

// Generate enumerates candidate LACs for every AND node of g under the
// simulated values res. Candidates keep the graph acyclic by
// construction: every SN id is strictly smaller than its target id.
// The returned slice is deterministic for a fixed graph and pattern
// set, ordered by target id and then by deviation. Targets are sharded
// across cfg.Workers goroutines; the result is identical for every
// worker count, because shards only partition the target list and
// each target's generation is independent.
func Generate(g *aig.Graph, res *simulate.Result, cfg Config) []*LAC {
	cfg = resolve(cfg, g.NumAnds())
	refs := g.RefCounts()
	var sigs *signatureIndex
	if cfg.GlobalWires > 0 {
		sigs = buildSignatureIndex(g, res)
	}
	// Eligible targets: AND nodes referenced by a fanin or PO.
	var targets []int
	for id := 0; id < g.NumNodes(); id++ {
		if g.IsAnd(id) && refs[id] > 0 {
			targets = append(targets, id)
		}
	}
	npat := res.Patterns.NumPatterns()
	per := make([][]*LAC, len(targets))
	workers := par.Resolve(cfg.Workers)
	// Each shard copies the refs slice (graph-sized), so a shard must
	// amortize that over at least a handful of targets (par.BlocksMin).
	blocks := par.BlocksMin(workers, len(targets), 8)
	par.For(blocks, len(targets), func(shard, begin, end int) {
		r := refs
		if blocks > 1 {
			// MFFC sizing mutates-then-restores the refs slice, so
			// concurrent shards need private copies.
			r = append([]int(nil), refs...)
		}
		for i := begin; i < end; i++ {
			id := targets[i]
			mffc := g.MFFCSize(id, r)
			per[i] = generateForTarget(g, res, cfg, id, mffc, npat, sigs, r)
		}
	})
	var out []*LAC
	for _, cands := range per {
		out = append(out, cands...)
	}
	return out
}

// resolve normalises a Config into its effective form: the zero value
// becomes the full defaults, unset numeric fields are filled in, and
// GlobalWires folds onto a canonical encoding (0 means "default quota",
// any negative sentinel becomes 0 meaning "off").
func resolve(cfg Config, numAnds int) Config {
	workers := cfg.Workers
	cfg.Workers = 0
	// A zero-valued config means "use the full defaults" (including
	// the resubstitution switches); a partially-set config keeps its
	// boolean choices and only has numeric fields filled in.
	if cfg == (Config{}) {
		cfg = DefaultConfig(numAnds)
	}
	def := DefaultConfig(numAnds)
	if cfg.MaxDivisors <= 0 {
		cfg.MaxDivisors = def.MaxDivisors
	}
	if cfg.MaxPerTarget <= 0 {
		cfg.MaxPerTarget = def.MaxPerTarget
	}
	if cfg.WindowDepth <= 0 {
		cfg.WindowDepth = def.WindowDepth
	}
	switch {
	case cfg.GlobalWires == 0:
		cfg.GlobalWires = def.GlobalWires
	case cfg.GlobalWires < 0:
		cfg.GlobalWires = 0
	}
	if cfg.Resub3Divisors <= 0 {
		cfg.Resub3Divisors = def.Resub3Divisors
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = def.MinGain
	}
	cfg.Workers = workers
	return cfg
}

// signatureIndex buckets nodes by the first simulation word of their
// value, enabling global SASIMI-style candidate lookup: signals whose
// values agree with a target on the first 64 patterns are promising
// substitution sources in the positive phase; buckets of the
// complemented word serve the negative phase.
type signatureIndex struct {
	buckets map[uint64][]int
}

func buildSignatureIndex(g *aig.Graph, res *simulate.Result) *signatureIndex {
	idx := &signatureIndex{buckets: make(map[uint64][]int)}
	for id := 1; id < g.NumNodes(); id++ {
		if g.NodeAt(id).Kind == aig.KindConst {
			continue
		}
		w := res.NodeVals[id][0]
		idx.buckets[w] = append(idx.buckets[w], id)
	}
	return idx
}

// maxBucketScan bounds how many bucket members are examined per
// lookup (buckets of near-constant signals can be large).
const maxBucketScan = 32

// candidatesFor returns up to limit global wire candidates for the
// target: bucket members before the target in topological order, in
// matching or complemented phase.
func (idx *signatureIndex) candidatesFor(res *simulate.Result, target int, limit int) []wireCand {
	var out []wireCand
	val := res.NodeVals[target]
	scan := func(bucket []int, compl bool) {
		// Prefer the closest preceding nodes: walk backwards from the
		// insertion point of target.
		lo := sort.SearchInts(bucket, target)
		for k := lo - 1; k >= 0 && lo-k <= maxBucketScan && len(out) < limit*2; k-- {
			out = append(out, wireCand{node: bucket[k], compl: compl})
		}
	}
	mask := ^uint64(0)
	if res.Patterns.Words() == 1 {
		mask = res.Patterns.LastMask()
	}
	scan(idx.buckets[val[0]], false)
	scan(idx.buckets[^val[0]&mask], true)
	return out
}

type wireCand struct {
	node  int
	compl bool
}

// candidate pairs a LAC with its deviation count during per-target
// ranking.
type candidate struct {
	lac *LAC
	dev int
}

// generateForTarget builds and ranks the candidates for one target.
// Gains of wire and resubstitution candidates account for substitute
// nodes living inside the target's MFFC (their cones survive the
// replacement).
func generateForTarget(g *aig.Graph, res *simulate.Result, cfg Config, id, mffc, npat int, sigs *signatureIndex, refs []int) []*LAC {
	val := res.NodeVals[id]
	ones := simulate.PopCount(val)
	var cands []candidate

	add := func(l *LAC, dev int) {
		if l.Gain < cfg.MinGain {
			return
		}
		// A zero-deviation resubstitution may just rebuild the
		// target's existing structure; such no-ops would poison the
		// ranking with optimistic gains.
		if dev == 0 {
			switch l.Fn.Kind {
			case FnAnd, FnXor, FnMux, FnMaj:
				if isNoop(g, l) {
					return
				}
			}
		}
		cands = append(cands, candidate{l, dev})
	}

	// Constant LACs.
	add(&LAC{Target: id, Fn: Fn{Kind: FnConst0}, Gain: mffc}, ones)
	add(&LAC{Target: id, Fn: Fn{Kind: FnConst1}, Gain: mffc}, npat-ones)

	divs := collectDivisors(g, id, cfg)

	// Wire (SASIMI) LACs: keep the better phase per divisor.
	for _, d := range divs {
		dist := xorPopCount(val, res.NodeVals[d], res.Patterns.LastMask())
		gain := g.MFFCSizeExcluding(id, refs, []int{d})
		if dist <= npat-dist {
			add(&LAC{Target: id, SNs: []int{d}, Fn: Fn{Kind: FnWire}, Gain: gain}, dist)
		} else {
			add(&LAC{Target: id, SNs: []int{d}, Fn: Fn{Kind: FnWire, C0: true}, Gain: gain}, npat-dist)
		}
	}

	// Global SASIMI wires from signature matching.
	if sigs != nil && cfg.GlobalWires > 0 {
		n := g.NodeAt(id)
		f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
		seenDiv := make(map[int]bool, len(divs))
		for _, d := range divs {
			seenDiv[d] = true
		}
		kept := 0
		for _, wc := range sigs.candidatesFor(res, id, cfg.GlobalWires) {
			if kept >= cfg.GlobalWires {
				break
			}
			if wc.node == f0 || wc.node == f1 || seenDiv[wc.node] {
				continue
			}
			dist := xorPopCount(val, res.NodeVals[wc.node], res.Patterns.LastMask())
			if wc.compl {
				dist = npat - dist
			}
			add(&LAC{Target: id, SNs: []int{wc.node}, Fn: Fn{Kind: FnWire, C0: wc.compl}, Gain: g.MFFCSizeExcluding(id, refs, []int{wc.node})}, dist)
			kept++
		}
	}

	// Resubstitution (ALSRAC) LACs over divisor pairs.
	if cfg.EnableResub && mffc > 1 {
		for i := 0; i < len(divs); i++ {
			for j := i + 1; j < len(divs); j++ {
				best, bestDev := bestPairFn(val, res.NodeVals[divs[i]], res.NodeVals[divs[j]], res.Patterns.LastMask(), npat)
				freed := g.MFFCSizeExcluding(id, refs, []int{divs[i], divs[j]})
				gain := freed - 1
				if best.Kind == FnXor {
					gain = freed - xorCost
				}
				if gain < cfg.MinGain {
					continue
				}
				add(&LAC{Target: id, SNs: []int{divs[i], divs[j]}, Fn: best, Gain: gain}, bestDev)
			}
		}
	}

	// Three-input resubstitution over a reduced divisor subset.
	if cfg.EnableResub3 && mffc > muxCost {
		d3 := divs
		lim := cfg.Resub3Divisors
		if lim <= 0 {
			lim = 8
		}
		if len(d3) > lim {
			d3 = d3[:lim]
		}
		vals := res.NodeVals
		for i := 0; i < len(d3); i++ {
			for j := i + 1; j < len(d3); j++ {
				for k := j + 1; k < len(d3); k++ {
					best, bestDev := bestTripleFn(val, vals[d3[i]], vals[d3[j]], vals[d3[k]], res.Patterns.LastMask(), npat)
					cost := muxCost
					if best.Kind == FnMaj {
						cost = majCost
					}
					gain := g.MFFCSizeExcluding(id, refs, []int{d3[i], d3[j], d3[k]}) - cost
					if gain < cfg.MinGain {
						continue
					}
					add(&LAC{Target: id, SNs: []int{d3[i], d3[j], d3[k]}, Fn: best, Gain: gain}, bestDev)
				}
			}
		}
	}

	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].dev != cands[b].dev {
			return cands[a].dev < cands[b].dev
		}
		return cands[a].lac.Gain > cands[b].lac.Gain
	})
	// Keep the best MaxPerTarget candidates, but cap resubstitutions
	// at half the slots: their deviations are often minimal (they can
	// imitate the target closely) while their area gains are smaller
	// than wire/constant changes, so unchecked they crowd out the
	// candidates with the better error-per-area trade.
	resubQuota := cfg.MaxPerTarget / 2
	if resubQuota < 1 {
		resubQuota = 1
	}
	out := make([]*LAC, 0, cfg.MaxPerTarget)
	resubs := 0
	for _, c := range cands {
		if len(out) == cfg.MaxPerTarget {
			break
		}
		switch c.lac.Fn.Kind {
		case FnAnd, FnXor, FnMux, FnMaj:
			if resubs == resubQuota {
				continue
			}
			resubs++
		}
		out = append(out, c.lac)
	}
	return out
}

// collectDivisors gathers candidate substitute nodes for target id:
// the nodes in a bounded-depth TFI window, restricted to ids strictly
// below the target (which both excludes the target's transitive fanout
// and preserves topological order under simultaneous substitution).
func collectDivisors(g *aig.Graph, id int, cfg Config) []int {
	type entry struct {
		node  int
		depth int
	}
	n := g.NodeAt(id)
	seen := map[int]bool{id: true}
	var window []int
	queue := []entry{{n.Fanin0.Node(), 1}, {n.Fanin1.Node(), 1}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if seen[e.node] || e.node == 0 {
			seen[e.node] = true
			continue
		}
		seen[e.node] = true
		window = append(window, e.node)
		if len(window) >= cfg.MaxDivisors*2 {
			break
		}
		nd := g.NodeAt(e.node)
		if nd.Kind == aig.KindAnd && e.depth < cfg.WindowDepth {
			queue = append(queue, entry{nd.Fanin0.Node(), e.depth + 1}, entry{nd.Fanin1.Node(), e.depth + 1})
		}
	}
	// Exclude the target's direct fanins: a wire LAC to a fanin is
	// usually either trivial or equivalent to a constant via the other
	// input, and resub pairs among remaining divisors stay meaningful.
	f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
	divs := window[:0]
	for _, d := range window {
		if d != f0 && d != f1 && d < id {
			divs = append(divs, d)
		}
	}
	sort.Ints(divs)
	if len(divs) > cfg.MaxDivisors {
		divs = divs[:cfg.MaxDivisors]
	}
	return divs
}

// bestPairFn evaluates the ten distinct two-input functions of (a, b)
// and returns the one whose value deviates least from target.
func bestPairFn(target, a, b simulate.Vec, lastMask uint64, npat int) (Fn, int) {
	fns := [...]Fn{
		{Kind: FnAnd},
		{Kind: FnAnd, C0: true},
		{Kind: FnAnd, C1: true},
		{Kind: FnAnd, C0: true, C1: true},
		{Kind: FnAnd, OutC: true},
		{Kind: FnAnd, C0: true, OutC: true},
		{Kind: FnAnd, C1: true, OutC: true},
		{Kind: FnAnd, C0: true, C1: true, OutC: true},
		{Kind: FnXor},
		{Kind: FnXor, OutC: true},
	}
	best := fns[0]
	bestDev := npat + 1
	last := len(target) - 1
	for _, f := range fns {
		dev := 0
		for w := range target {
			d := fnEval(f, a[w], b[w]) ^ target[w]
			if w == last {
				d &= lastMask
			}
			dev += bits.OnesCount64(d)
			if dev >= bestDev {
				break
			}
		}
		if dev < bestDev {
			bestDev = dev
			best = f
		}
	}
	return best, bestDev
}

// tripleFns lists the three-input function variants evaluated per
// divisor triple: MUX with each operand as the select (branch swaps
// are covered by complementing the select) plus branch-phase and
// output-phase variants, and majority with output phase.
var tripleFns = func() []Fn {
	var fns []Fn
	for _, base := range []Fn{
		{Kind: FnMux},
		{Kind: FnMux, C0: true},
	} {
		for _, c1 := range []bool{false, true} {
			for _, c2 := range []bool{false, true} {
				f := base
				f.C1, f.C2 = c1, c2
				fns = append(fns, f)
			}
		}
	}
	fns = append(fns, Fn{Kind: FnMaj}, Fn{Kind: FnMaj, OutC: true})
	return fns
}()

// bestTripleFn evaluates the ternary function variants of (a, b, c)
// and returns the one whose value deviates least from target.
func bestTripleFn(target, a, b, c simulate.Vec, lastMask uint64, npat int) (Fn, int) {
	best := tripleFns[0]
	bestDev := npat + 1
	last := len(target) - 1
	for _, f := range tripleFns {
		dev := 0
		for w := range target {
			d := fnEval3(f, a[w], b[w], c[w]) ^ target[w]
			if w == last {
				d &= lastMask
			}
			dev += bits.OnesCount64(d)
			if dev >= bestDev {
				break
			}
		}
		if dev < bestDev {
			bestDev = dev
			best = f
		}
	}
	return best, bestDev
}

// isNoop reports whether applying the LAC would rebuild the target's
// existing structure: the replacement function, probed against the
// graph's structural hash, resolves to the target node itself. Such
// candidates carry an optimistic gain estimate but change nothing.
func isNoop(g *aig.Graph, l *LAC) bool {
	probe := func(a, b aig.Lit) (aig.Lit, bool) { return g.ProbeAnd(a, b) }
	probeOr := func(a, b aig.Lit) (aig.Lit, bool) {
		v, ok := probe(a.Not(), b.Not())
		return v.Not(), ok
	}
	sn := func(i int, c bool) aig.Lit { return aig.MakeLit(l.SNs[i], false).NotIf(c) }

	var out aig.Lit
	switch l.Fn.Kind {
	case FnAnd:
		v, ok := probe(sn(0, l.Fn.C0), sn(1, l.Fn.C1))
		if !ok {
			return false
		}
		out = v
	case FnXor:
		t1, ok1 := probe(sn(0, l.Fn.C0), sn(1, l.Fn.C1).Not())
		t2, ok2 := probe(sn(0, l.Fn.C0).Not(), sn(1, l.Fn.C1))
		if !ok1 || !ok2 {
			return false
		}
		v, ok := probeOr(t1, t2)
		if !ok {
			return false
		}
		out = v
	case FnMux:
		s, t, e := sn(0, l.Fn.C0), sn(1, l.Fn.C1), sn(2, l.Fn.C2)
		t1, ok1 := probe(s, t)
		t2, ok2 := probe(s.Not(), e)
		if !ok1 || !ok2 {
			return false
		}
		v, ok := probeOr(t1, t2)
		if !ok {
			return false
		}
		out = v
	case FnMaj:
		a, b, c := sn(0, l.Fn.C0), sn(1, l.Fn.C1), sn(2, l.Fn.C2)
		ab, ok1 := probe(a, b)
		ac, ok2 := probe(a, c)
		bc, ok3 := probe(b, c)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		inner, ok := probeOr(ac, bc)
		if !ok {
			return false
		}
		v, ok := probeOr(ab, inner)
		if !ok {
			return false
		}
		out = v
	default:
		return false
	}
	return out.NotIf(l.Fn.OutC) == aig.MakeLit(l.Target, false)
}

// xorPopCount returns the Hamming distance between two vectors.
func xorPopCount(a, b simulate.Vec, lastMask uint64) int {
	c := 0
	last := len(a) - 1
	for w := range a {
		d := a[w] ^ b[w]
		if w == last {
			d &= lastMask
		}
		c += bits.OnesCount64(d)
	}
	return c
}
