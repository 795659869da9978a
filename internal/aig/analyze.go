package aig

import "accals/internal/bitset"

// Levels returns the logic level of every node: 0 for the constant and
// PIs, 1 + max(fanin levels) for AND nodes.
func (g *Graph) Levels() []int {
	lv := make([]int, len(g.nodes))
	for id, n := range g.nodes {
		if n.Kind == KindAnd {
			l0 := lv[n.Fanin0.Node()]
			l1 := lv[n.Fanin1.Node()]
			if l0 < l1 {
				l0 = l1
			}
			lv[id] = l0 + 1
		}
	}
	return lv
}

// Depth returns the maximum level over all primary outputs.
func (g *Graph) Depth() int {
	lv := g.Levels()
	d := 0
	for _, l := range g.pos {
		if lv[l.Node()] > d {
			d = lv[l.Node()]
		}
	}
	return d
}

// Fanouts returns, for every node, the ids of the AND nodes that use it
// as a fanin. Primary outputs are not included; use RefCounts for
// reference counting that includes POs.
func (g *Graph) Fanouts() [][]int {
	fo := make([][]int, len(g.nodes))
	for id, n := range g.nodes {
		if n.Kind != KindAnd {
			continue
		}
		fo[n.Fanin0.Node()] = append(fo[n.Fanin0.Node()], id)
		if n.Fanin1.Node() != n.Fanin0.Node() {
			fo[n.Fanin1.Node()] = append(fo[n.Fanin1.Node()], id)
		}
	}
	return fo
}

// RefCounts returns the number of references to each node from AND
// fanins and primary outputs.
func (g *Graph) RefCounts() []int {
	refs := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		if n.Kind != KindAnd {
			continue
		}
		refs[n.Fanin0.Node()]++
		refs[n.Fanin1.Node()]++
	}
	for _, l := range g.pos {
		refs[l.Node()]++
	}
	return refs
}

// Reachable returns the set of node ids reachable from the primary
// outputs through fanin edges (the "live" logic).
func (g *Graph) Reachable() *bitset.Set {
	live := bitset.New(len(g.nodes))
	stack := make([]int, 0, len(g.pos))
	for _, l := range g.pos {
		if !live.Has(l.Node()) {
			live.Add(l.Node())
			stack = append(stack, l.Node())
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.nodes[id]
		if n.Kind != KindAnd {
			continue
		}
		for _, f := range [2]int{n.Fanin0.Node(), n.Fanin1.Node()} {
			if !live.Has(f) {
				live.Add(f)
				stack = append(stack, f)
			}
		}
	}
	live.Add(0)
	return live
}

// NumLiveAnds returns the number of AND nodes reachable from the POs.
func (g *Graph) NumLiveAnds() int {
	live := g.Reachable()
	c := 0
	live.ForEach(func(id int) {
		if g.nodes[id].Kind == KindAnd {
			c++
		}
	})
	return c
}

// TFO returns the transitive fanout of node id (including id itself)
// as a bit set over node ids, using the given fanout lists.
func (g *Graph) TFO(id int, fanouts [][]int) *bitset.Set {
	set := bitset.New(len(g.nodes))
	set.Add(id)
	stack := []int{id}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range fanouts[v] {
			if !set.Has(w) {
				set.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return set
}

// TFI returns the transitive fanin of node id (including id itself).
func (g *Graph) TFI(id int) *bitset.Set {
	set := bitset.New(len(g.nodes))
	set.Add(id)
	stack := []int{id}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.nodes[v]
		if n.Kind != KindAnd {
			continue
		}
		for _, f := range [2]int{n.Fanin0.Node(), n.Fanin1.Node()} {
			if !set.Has(f) {
				set.Add(f)
				stack = append(stack, f)
			}
		}
	}
	return set
}

// ShortestFanoutDistance returns the length (in edges) of the shortest
// directed path from node src to node dst through fanout edges, or -1
// if no such path exists. A distance of 0 means src == dst.
func (g *Graph) ShortestFanoutDistance(src, dst int, fanouts [][]int) int {
	if src == dst {
		return 0
	}
	dist := make(map[int]int, 64)
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range fanouts[v] {
			if _, seen := dist[w]; seen {
				continue
			}
			dist[w] = dist[v] + 1
			if w == dst {
				return dist[w]
			}
			queue = append(queue, w)
		}
	}
	return -1
}

// MFFCSize returns the size of the maximum fanout-free cone of node id:
// the number of AND nodes (including id) that would become dead if all
// references to id were removed. refs must come from RefCounts.
// The slice is restored before returning, so it can be reused.
func (g *Graph) MFFCSize(id int, refs []int) int {
	if g.nodes[id].Kind != KindAnd {
		return 0
	}
	var freed []int
	size := g.mffcDeref(id, refs, &freed)
	// Restore reference counts.
	for _, f := range freed {
		refs[f]++
	}
	return size
}

// MFFCSizeExcluding returns the MFFC size of node id while holding
// the keep nodes externally referenced. It models the area freed by
// replacing id with a function of the keep nodes: any part of id's
// cone feeding a keep node survives the replacement.
func (g *Graph) MFFCSizeExcluding(id int, refs []int, keep []int) int {
	for _, k := range keep {
		refs[k]++
	}
	size := g.MFFCSize(id, refs)
	for _, k := range keep {
		refs[k]--
	}
	return size
}

// mffcDeref recursively dereferences the fanins of id, counting nodes
// whose reference count drops to zero. Every decrement is recorded in
// freed so the caller can undo it.
func (g *Graph) mffcDeref(id int, refs []int, freed *[]int) int {
	n := g.nodes[id]
	size := 1
	for _, f := range [2]Lit{n.Fanin0, n.Fanin1} {
		fid := f.Node()
		refs[fid]--
		*freed = append(*freed, fid)
		if refs[fid] == 0 && g.nodes[fid].Kind == KindAnd {
			size += g.mffcDeref(fid, refs, freed)
		}
	}
	return size
}
