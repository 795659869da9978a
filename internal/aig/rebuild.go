package aig

// ReplaceFunc constructs the replacement literal for a substituted
// node. It receives the graph being built and a copyOf function that
// maps an old node id to its literal in the new graph. Implementations
// may only request nodes that precede the substituted node in the old
// graph's topological order; this is what keeps every simultaneous
// application of approximate changes acyclic.
type ReplaceFunc func(g *Graph, copyOf func(oldID int) Lit) Lit

// Rebuild copies the graph while substituting the nodes listed in repl.
// For every old node id present in repl, the node's logic is replaced
// by the literal produced by its ReplaceFunc; all other nodes are
// copied verbatim (subject to structural hashing, which may merge
// duplicates). Dead logic is removed. The PI/PO interface is preserved
// exactly: same count, order and names.
func (g *Graph) Rebuild(repl map[int]ReplaceFunc) *Graph {
	ng := New(g.Name)
	copyLit := make([]Lit, len(g.nodes))
	copyOf := func(oldID int) Lit { return copyLit[oldID] }
	for id, n := range g.nodes {
		switch n.Kind {
		case KindConst:
			copyLit[id] = ConstFalse
		case KindPI:
			copyLit[id] = ng.AddPI(g.piNames[len(ng.pis)])
			if rf, ok := repl[id]; ok {
				copyLit[id] = rf(ng, copyOf)
			}
		case KindAnd:
			if rf, ok := repl[id]; ok {
				copyLit[id] = rf(ng, copyOf)
				continue
			}
			f0 := copyLit[n.Fanin0.Node()].NotIf(n.Fanin0.IsCompl())
			f1 := copyLit[n.Fanin1.Node()].NotIf(n.Fanin1.IsCompl())
			copyLit[id] = ng.And(f0, f1)
		}
	}
	for i, l := range g.pos {
		ng.AddPO(copyLit[l.Node()].NotIf(l.IsCompl()), g.poNames[i])
	}
	return ng.Sweep()
}

// Clone returns a deep copy of the graph with dead logic removed.
func (g *Graph) Clone() *Graph {
	return g.Rebuild(nil)
}

// Sweep returns a compacted copy of the graph containing only the
// constant, all primary inputs (kept even when unused, so the
// simulation interface is stable), and the AND nodes reachable from
// the primary outputs.
func (g *Graph) Sweep() *Graph {
	live := g.Reachable()
	ng := New(g.Name)
	copyLit := make([]Lit, len(g.nodes))
	for id, n := range g.nodes {
		switch n.Kind {
		case KindConst:
			copyLit[id] = ConstFalse
		case KindPI:
			copyLit[id] = ng.AddPI(g.piNames[len(ng.pis)])
		case KindAnd:
			if !live.Has(id) {
				continue
			}
			f0 := copyLit[n.Fanin0.Node()].NotIf(n.Fanin0.IsCompl())
			f1 := copyLit[n.Fanin1.Node()].NotIf(n.Fanin1.IsCompl())
			copyLit[id] = ng.And(f0, f1)
		}
	}
	for i, l := range g.pos {
		ng.AddPO(copyLit[l.Node()].NotIf(l.IsCompl()), g.poNames[i])
	}
	return ng
}
