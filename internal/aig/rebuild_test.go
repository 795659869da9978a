package aig

import (
	"math/rand"
	"testing"
)

// subst is a LAC-shaped substitution: the target takes the value of
// node src (node 0 is the constant), complemented when compl is set.
type subst struct {
	src   int
	compl bool
}

// randomSubsts picks a few AND targets of g and gives each a constant
// or a (possibly complemented) wire to a strictly earlier node — the
// shapes LACs produce.
func randomSubsts(g *Graph, rng *rand.Rand) map[int]subst {
	var ands []int
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			ands = append(ands, id)
		}
	}
	if len(ands) == 0 {
		return nil
	}
	out := map[int]subst{}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		t := ands[rng.Intn(len(ands))]
		s := subst{compl: rng.Intn(2) == 1}
		if rng.Intn(3) != 0 {
			s.src = 1 + rng.Intn(t-1)
		}
		out[t] = s
	}
	return out
}

// replFuncs turns substitutions into Rebuild's callback map.
func replFuncs(subs map[int]subst) map[int]ReplaceFunc {
	repl := make(map[int]ReplaceFunc, len(subs))
	for t, s := range subs {
		s := s
		repl[t] = func(_ *Graph, copyOf func(int) Lit) Lit { return copyOf(s.src).NotIf(s.compl) }
	}
	return repl
}

// evalSubstPOs evaluates g's POs with the substitutions applied: the
// reference semantics Rebuild must realise.
func evalSubstPOs(g *Graph, subs map[int]subst, assign map[int]bool) []bool {
	val := make([]bool, g.NumNodes())
	for id := 1; id < g.NumNodes(); id++ {
		n := g.NodeAt(id)
		switch {
		case n.Kind == KindPI:
			val[id] = assign[id]
		case n.Kind == KindAnd:
			val[id] = val[n.Fanin0.Node()] != n.Fanin0.IsCompl() && val[n.Fanin1.Node()] != n.Fanin1.IsCompl()
		}
		if s, ok := subs[id]; ok {
			val[id] = val[s.src] != s.compl
		}
	}
	out := make([]bool, g.NumPOs())
	for i, l := range g.POs() {
		out[i] = val[l.Node()] != l.IsCompl()
	}
	return out
}

// pairedAssign draws one random PI assignment and keys it by each
// graph's PI node ids (ids can shift across a rebuild; PI order is
// preserved).
func pairedAssign(g, ng *Graph, rng *rand.Rand) (map[int]bool, map[int]bool) {
	aOld := map[int]bool{}
	aNew := map[int]bool{}
	for i := 0; i < g.NumPIs(); i++ {
		v := rng.Intn(2) == 1
		aOld[g.PI(i)] = v
		aNew[ng.PI(i)] = v
	}
	return aOld, aNew
}

// checkRebuild asserts that ng is a valid rebuild of g under subs: the
// interface is preserved, no dead AND survives, and every PO computes
// the substituted reference function.
func checkRebuild(t *testing.T, seed int64, g, ng *Graph, subs map[int]subst, rng *rand.Rand) {
	t.Helper()
	if err := ng.Check(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
		t.Fatalf("seed %d: interface %d/%d, want %d/%d", seed, ng.NumPIs(), ng.NumPOs(), g.NumPIs(), g.NumPOs())
	}
	live := ng.Reachable()
	for id := 1; id < ng.NumNodes(); id++ {
		if ng.IsAnd(id) && !live.Has(id) {
			t.Fatalf("seed %d: dead AND %d survived the rebuild", seed, id)
		}
	}
	for trial := 0; trial < 6; trial++ {
		aOld, aNew := pairedAssign(g, ng, rng)
		want := evalSubstPOs(g, subs, aOld)
		got := evalAllPOs(ng, aNew)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: PO %d = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRebuildIdentity covers the substitution-free path: the rebuild is
// a swept copy computing the same PO functions, and rebuilding it again
// is a fixed point.
func TestRebuildIdentity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 5, 40)
		ng := g.Rebuild(nil)
		checkRebuild(t, seed, g, ng, nil, rand.New(rand.NewSource(seed+1000)))
		if again := ng.Rebuild(nil); again.NumNodes() != ng.NumNodes() {
			t.Fatalf("seed %d: second rebuild has %d nodes, want %d", seed, again.NumNodes(), ng.NumNodes())
		}
	}
}

// TestRebuildWithReplacements applies random LAC-shaped substitutions
// and checks every PO against a direct evaluation of the old graph with
// the substitutions applied.
func TestRebuildWithReplacements(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed, 5, 45)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		subs := randomSubsts(g, rng)
		if subs == nil {
			continue
		}
		checkRebuild(t, seed, g, g.Rebuild(replFuncs(subs)), subs, rng)
	}
}
