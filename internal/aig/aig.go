// Package aig implements a structurally hashed AND-inverter graph
// (AIG), the circuit representation used throughout this repository.
//
// An AIG represents combinational logic with two-input AND nodes and
// complemented edges. Node 0 is the constant-false node; primary
// inputs and AND nodes follow. Construction order is a topological
// order by invariant: the fanins of every AND node have smaller node
// ids than the node itself. All algorithms in this module rely on that
// invariant, including the multi-LAC rebuild (see Rebuild), which is
// what guarantees that simultaneously applied approximate changes can
// never create a combinational cycle.
package aig

import "fmt"

// Lit is an edge literal: a node id shifted left by one, with the low
// bit indicating complementation.
type Lit uint32

// Constant literals (node 0).
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MakeLit builds the literal for node id with the given complement flag.
func MakeLit(node int, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node id the literal points to.
func (l Lit) Node() int { return int(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the literal as e.g. "n7" or "!n7".
func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Kind distinguishes the three node types of an AIG.
type Kind uint8

// Node kinds.
const (
	KindConst Kind = iota // node 0 only
	KindPI                // primary input
	KindAnd               // two-input AND
)

// Node is a single AIG node. For KindAnd, Fanin0 and Fanin1 are the
// input literals (Fanin0 <= Fanin1 after normalisation); they are
// unused for the other kinds.
type Node struct {
	Kind   Kind
	Fanin0 Lit
	Fanin1 Lit
}

// Graph is a combinational AND-inverter graph. The zero value is not
// usable; create graphs with New.
type Graph struct {
	// Name identifies the circuit (benchmark name).
	Name string

	nodes   []Node
	pis     []int // node ids of primary inputs, in declaration order
	pos     []Lit // primary output literals, in declaration order
	piNames []string
	poNames []string
	strash  map[[2]Lit]int
}

// New returns an empty graph containing only the constant node.
func New(name string) *Graph {
	g := &Graph{
		Name:   name,
		nodes:  make([]Node, 1, 256),
		strash: make(map[[2]Lit]int),
	}
	g.nodes[0] = Node{Kind: KindConst}
	return g
}

// AddPI appends a primary input and returns its (positive) literal.
func (g *Graph) AddPI(name string) Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, Node{Kind: KindPI})
	g.pis = append(g.pis, id)
	g.piNames = append(g.piNames, name)
	return MakeLit(id, false)
}

// AddPO appends a primary output driven by literal l.
func (g *Graph) AddPO(l Lit, name string) {
	if l.Node() >= len(g.nodes) {
		panic(fmt.Sprintf("aig: PO literal %v out of range", l))
	}
	g.pos = append(g.pos, l)
	g.poNames = append(g.poNames, name)
}

// And returns a literal for the conjunction of a and b, applying
// constant propagation, trivial simplification, and structural hashing.
func (g *Graph) And(a, b Lit) Lit {
	// Normalise operand order so the hash key is canonical.
	if a > b {
		a, b = b, a
	}
	switch {
	case a == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case a == b:
		return a
	case a == b.Not():
		return ConstFalse
	}
	key := [2]Lit{a, b}
	if id, ok := g.strash[key]; ok {
		return MakeLit(id, false)
	}
	id := len(g.nodes)
	g.nodes = append(g.nodes, Node{Kind: KindAnd, Fanin0: a, Fanin1: b})
	g.strash[key] = id
	return MakeLit(id, false)
}

// ProbeAnd returns the literal And(a, b) would evaluate to if it can
// be determined without creating a node: a constant-folded or trivial
// result, or an existing structurally hashed node. ok is false when
// the conjunction would require a new node.
func (g *Graph) ProbeAnd(a, b Lit) (Lit, bool) {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == ConstFalse:
		return ConstFalse, true
	case a == ConstTrue:
		return b, true
	case a == b:
		return a, true
	case a == b.Not():
		return ConstFalse, true
	}
	if id, ok := g.strash[[2]Lit{a, b}]; ok {
		return MakeLit(id, false), true
	}
	return 0, false
}

// Or returns a literal for the disjunction of a and b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for the exclusive-or of a and b.
func (g *Graph) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns a literal for the exclusive-nor of a and b.
func (g *Graph) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns a literal for "if s then t else e".
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// Maj3 returns the majority of three literals (full-adder carry).
func (g *Graph) Maj3(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// NumNodes returns the total node count including the constant and PIs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes (the usual "AIG size").
func (g *Graph) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// NumPIs returns the number of primary inputs.
func (g *Graph) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *Graph) NumPOs() int { return len(g.pos) }

// PI returns the node id of the i-th primary input.
func (g *Graph) PI(i int) int { return g.pis[i] }

// PIs returns the node ids of all primary inputs in declaration order.
func (g *Graph) PIs() []int { return g.pis }

// PO returns the literal driving the i-th primary output.
func (g *Graph) PO(i int) Lit { return g.pos[i] }

// POs returns the literals of all primary outputs in declaration order.
func (g *Graph) POs() []Lit { return g.pos }

// SetPO redirects the i-th primary output to literal l.
func (g *Graph) SetPO(i int, l Lit) { g.pos[i] = l }

// PIName returns the name of the i-th primary input.
func (g *Graph) PIName(i int) string { return g.piNames[i] }

// POName returns the name of the i-th primary output.
func (g *Graph) POName(i int) string { return g.poNames[i] }

// NodeAt returns the node with the given id.
func (g *Graph) NodeAt(id int) Node { return g.nodes[id] }

// IsAnd reports whether node id is an AND node.
func (g *Graph) IsAnd(id int) bool { return g.nodes[id].Kind == KindAnd }

// IsPI reports whether node id is a primary input.
func (g *Graph) IsPI(id int) bool { return g.nodes[id].Kind == KindPI }

// Check verifies the structural invariants of the graph: fanins of
// every AND node precede the node, and all PO literals are in range.
// It returns a descriptive error for the first violation found.
func (g *Graph) Check() error {
	for id, n := range g.nodes {
		switch n.Kind {
		case KindConst:
			if id != 0 {
				return fmt.Errorf("aig: constant node at id %d", id)
			}
		case KindAnd:
			if n.Fanin0.Node() >= id || n.Fanin1.Node() >= id {
				return fmt.Errorf("aig: node %d has non-topological fanin (%v, %v)", id, n.Fanin0, n.Fanin1)
			}
			if n.Fanin0 > n.Fanin1 {
				return fmt.Errorf("aig: node %d has non-normalised fanins (%v, %v)", id, n.Fanin0, n.Fanin1)
			}
		}
	}
	for i, l := range g.pos {
		if l.Node() >= len(g.nodes) {
			return fmt.Errorf("aig: PO %d literal %v out of range", i, l)
		}
	}
	return nil
}
