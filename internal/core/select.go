package core

import (
	"math"
	"math/rand"
	"sort"

	"accals/internal/aig"
	"accals/internal/bitset"
	"accals/internal/lac"
	"accals/internal/mis"
)

// CandidateLess is the order both flows rank candidate LACs by:
// ascending estimated error increase, then larger gain, then smaller
// target id for determinism.
func CandidateLess(a, b *lac.LAC) bool {
	if a.DeltaE != b.DeltaE {
		return a.DeltaE < b.DeltaE
	}
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.Target < b.Target
}

// sortByDeltaE stably sorts LACs by CandidateLess.
func sortByDeltaE(lacs []*lac.LAC) {
	sort.SliceStable(lacs, func(i, j int) bool { return CandidateLess(lacs[i], lacs[j]) })
}

// bestLAC returns the first LAC of the sortByDeltaE order in one scan:
// the earliest candidate no other candidate precedes.
func bestLAC(cands []*lac.LAC) *lac.LAC {
	best := cands[0]
	for _, c := range cands[1:] {
		if CandidateLess(c, best) {
			best = c
		}
	}
	return best
}

// obtainTopSet implements ObtainTopSet (Section II-B): it returns the
// r_top candidates with the smallest error increases, where r_top
// follows Eq. (2) and shrinks as the error approaches the bound.
// The input slice must already be sorted by sortByDeltaE.
func obtainTopSet(sorted []*lac.LAC, e, eb float64, rRef int) []*lac.LAC {
	if len(sorted) == 0 {
		return nil
	}
	// r_min: number of LACs sharing the minimum error increase.
	rMin := 1
	for rMin < len(sorted) && sorted[rMin].DeltaE == sorted[0].DeltaE {
		rMin++
	}
	base := rRef
	if rMin > base {
		base = rMin
	}
	frac := 0.0
	if eb > 0 {
		frac = (eb - e) / eb
	}
	rTop := int(frac * float64(base))
	if rTop < 1 {
		rTop = 1
	}
	if rTop > len(sorted) {
		rTop = len(sorted)
	}
	return sorted[:rTop]
}

// findSolveLACConf implements FindSolveLACConf (Section II-C): build
// the LAC conflict graph over lTop and greedily extract a
// conflict-free subset in ascending weight (error increase) order.
// It returns the conflict-free LACs, their target-node set, and the
// conflict graph's edge count (a round-ledger column).
//
// Conflicts: Type 1 -- two LACs share a target node; Type 2 -- an SN
// of one LAC is the TN of the other.
func findSolveLACConf(lTop []*lac.LAC) (lSol []*lac.LAC, nSol []int, confEdges int) {
	g := BuildConflictGraph(lTop)
	// lTop is sorted by ascending DeltaE already (the node weights),
	// so a simple in-order greedy matches the paper's heuristic.
	selected := make([]int, 0, len(lTop))
	for v := 0; v < g.N(); v++ {
		ok := true
		for _, u := range selected {
			if g.HasEdge(u, v) {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, v)
		}
	}
	for _, v := range selected {
		lSol = append(lSol, lTop[v])
		nSol = append(nSol, lTop[v].Target)
	}
	return lSol, nSol, g.NumEdges()
}

// BuildConflictGraph constructs the LAC conflict graph of Definition 1:
// one vertex per LAC, an edge for every Type-1 or Type-2 conflict.
// Exported for tests and for the conflict-analysis example.
func BuildConflictGraph(lacs []*lac.LAC) *mis.Graph {
	g := mis.NewGraph(len(lacs))
	// Index LACs by target node for Type-1 and Type-2 detection.
	byTarget := make(map[int][]int, len(lacs))
	for i, l := range lacs {
		byTarget[l.Target] = append(byTarget[l.Target], i)
	}
	// Type 1: same target node.
	for _, idxs := range byTarget {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				g.AddEdge(idxs[a], idxs[b])
			}
		}
	}
	// Type 2: an SN of one LAC is the TN of another.
	for i, l := range lacs {
		for _, sn := range l.SNs {
			for _, j := range byTarget[sn] {
				if j != i {
					g.AddEdge(i, j)
				}
			}
		}
	}
	return g
}

// influenceIndex computes the paper's structural mutual-influence
// index p_ji for the pair of target nodes (earlier, later) in
// topological order: 1/d for the shortest directed path length d when
// connected, otherwise the fractional overlap of transitive fanouts
// |F(earlier) ∩ F(later)| / |F(later)|. It is built per round over
// that round's circuit.
type influenceIndex struct {
	g       *aig.Graph
	fanouts [][]int
	// dist caches, per source node, the BFS distance to every node in
	// its transitive fanout (one single-source pass serves all pairs).
	dist map[int][]int32
	// tfo caches transitive fanout sets per node.
	tfo map[int]*bitset.Set
}

// newInfluenceIndex prepares fanout lists for the graph.
func newInfluenceIndex(g *aig.Graph) *influenceIndex {
	return &influenceIndex{
		g:       g,
		fanouts: g.Fanouts(),
		dist:    make(map[int][]int32),
		tfo:     make(map[int]*bitset.Set),
	}
}

// distancesFrom returns (cached) BFS distances from src through fanout
// edges; -1 marks unreachable nodes.
func (x *influenceIndex) distancesFrom(src int) []int32 {
	if d, ok := x.dist[src]; ok {
		return d
	}
	d := make([]int32, x.g.NumNodes())
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range x.fanouts[v] {
			if d[w] < 0 {
				d[w] = d[v] + 1
				queue = append(queue, w)
			}
		}
	}
	x.dist[src] = d
	return d
}

// tfoOf returns the (cached) transitive fanout set of node id.
func (x *influenceIndex) tfoOf(id int) *bitset.Set {
	if s, ok := x.tfo[id]; ok {
		return s
	}
	s := x.g.TFO(id, x.fanouts)
	x.tfo[id] = s
	return s
}

// pji returns the index for target nodes ni and nj of two LACs.
func (x *influenceIndex) pji(a, b int) float64 {
	earlier, later := a, b
	if earlier > later {
		earlier, later = later, earlier
	}
	if d := x.distancesFrom(earlier)[later]; d > 0 {
		return 1 / float64(d)
	}
	fe := x.tfoOf(earlier)
	fl := x.tfoOf(later)
	den := fl.Count()
	if den == 0 {
		return 0
	}
	return float64(fe.IntersectCount(fl)) / float64(den)
}

// indpStats surfaces SelectIndpLACs' intermediate sizes for the round
// ledger: how many target pairs the mutual-influence index scored, how
// many exceeded the t_b threshold (the edges of G_sol), and the solved
// MIS size |N_indp|.
type indpStats struct {
	pairs, above, misSize int
}

// selectIndpLACs implements SelectIndpLACs (Section II-D): build the
// graph G_sol over target nodes with edges where p_ji > t_b, solve an
// MIS to obtain N_indp, and pick the final independent LAC set from
// the potential set L_pote under the r_sel / λ·e_b budget.
func selectIndpLACs(lSol []*lac.LAC, idx *influenceIndex, e, eb float64, p Params) ([]*lac.LAC, indpStats) {
	var st indpStats
	if len(lSol) == 0 {
		return nil, st
	}
	// Build G_sol. After conflict resolution every LAC has a unique
	// target, so vertices map 1:1 to lSol entries.
	gs := mis.NewGraph(len(lSol))
	for i := 0; i < len(lSol); i++ {
		for j := i + 1; j < len(lSol); j++ {
			st.pairs++
			if idx.pji(lSol[i].Target, lSol[j].Target) > p.TB {
				gs.AddEdge(i, j)
				st.above++
			}
		}
	}
	nIndp := mis.Solve(gs, p.Seed)
	st.misSize = len(nIndp)

	// L_pote: LACs whose targets are in N_indp, by ascending ΔE.
	lPote := make([]*lac.LAC, 0, len(nIndp))
	for _, v := range nIndp {
		lPote = append(lPote, lSol[v])
	}
	sortByDeltaE(lPote)
	return budgetedPrefix(lPote, e, eb, p), st
}

// budgetedPrefix applies the paper's sizing rule for L_indp: all
// non-positive-ΔE LACs when there are at least r_sel of them;
// otherwise the longest prefix of the first r_sel LACs whose estimated
// error e + ΣΔE stays within λ·e_b, and at least one LAC always.
func budgetedPrefix(sorted []*lac.LAC, e, eb float64, p Params) []*lac.LAC {
	if len(sorted) == 0 {
		return nil
	}
	rNeg := 0
	for _, l := range sorted {
		if l.DeltaE <= 0 {
			rNeg++
		}
	}
	if rNeg >= p.RSel {
		return sorted[:rNeg]
	}
	limit := p.Lambda * eb
	n := len(sorted)
	if n > p.RSel {
		n = p.RSel
	}
	best := 1
	sum := e
	for i := 0; i < n; i++ {
		sum += sorted[i].DeltaE
		if sum <= limit {
			best = i + 1
		}
	}
	if sum := e + sorted[0].DeltaE; sum > limit {
		best = 1
	}
	return sorted[:best]
}

// selectRandomLACs implements SelectRandomLACs: a seeded random
// conflict-free subset of L_sol, sized with the same r_sel / λ·e_b
// budget as the independent set but in shuffled order.
func selectRandomLACs(lSol []*lac.LAC, e, eb float64, p Params, rng *rand.Rand) []*lac.LAC {
	if len(lSol) == 0 {
		return nil
	}
	shuffled := append([]*lac.LAC(nil), lSol...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	limit := p.Lambda * eb
	n := len(shuffled)
	if n > p.RSel {
		n = p.RSel
	}
	out := shuffled[:1:1]
	sum := e + shuffled[0].DeltaE
	for i := 1; i < n; i++ {
		if sum+shuffled[i].DeltaE > limit {
			continue
		}
		sum += shuffled[i].DeltaE
		out = append(out, shuffled[i])
	}
	return out
}

// estimatedError returns e + Σ ΔE over the set (Eq. (1)).
func estimatedError(e float64, set []*lac.LAC) float64 {
	sum := e
	for _, l := range set {
		sum += l.DeltaE
	}
	return math.Max(sum, 0)
}
