package graph

import (
	"math"
	"sync"
)

// Constraints restricts the paths a search may return. The zero value means
// "no restriction".
type Constraints struct {
	// ExcludeEdges, if non-nil, marks edges the path must not traverse.
	// Indexed by EdgeID; lengths shorter than NumEdges treat the tail as
	// not excluded.
	ExcludeEdges []bool
	// ExcludeNodes, if non-nil, marks nodes the path must not visit.
	// Source and destination are always allowed.
	ExcludeNodes []bool
	// MaxHops bounds the number of edges in the path; 0 means unbounded.
	MaxHops int
}

func (c Constraints) edgeExcluded(id EdgeID) bool {
	return c.ExcludeEdges != nil && int(id) < len(c.ExcludeEdges) && c.ExcludeEdges[id]
}

func (c Constraints) nodeExcluded(n NodeID) bool {
	return c.ExcludeNodes != nil && int(n) < len(c.ExcludeNodes) && c.ExcludeNodes[n]
}

// Searcher is a reusable Dijkstra workspace. Its per-node state is
// generation-stamped, so a search costs nothing proportional to the node
// count up front, and its heap is a typed slice that keeps its capacity:
// once warm, a search allocates only the returned path's edge slice.
//
// The heap repeats container/heap's exact sift sequence over the same
// `dist <` order, so equal-distance ties pop in the same order as a
// container/heap Dijkstra and every returned path is the one such a
// search would return, edge for edge.
//
// The zero value is ready to use; it grows to fit each graph it searches.
// Not safe for concurrent use.
type Searcher struct {
	gen   uint32
	nodes []nodeState
	heap  []heapItem
}

// nodeState is one node's search state; dist, hops and prev belong to
// the current search only when stamp == gen.
type nodeState struct {
	dist  float64
	stamp uint32
	done  uint32 // == gen: settled
	hops  int32
	prev  EdgeID
}

type heapItem struct {
	node NodeID
	dist float64
}

// reset starts a new search over an n-node graph.
func (s *Searcher) reset(n int) {
	if len(s.nodes) < n {
		s.nodes = make([]nodeState, n)
		s.heap = make([]heapItem, 0, n)
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(s.nodes)
		s.gen = 1
	}
	s.heap = s.heap[:0]
}

// distOf is v's distance in this search, +Inf when v has not been reached.
func (s *Searcher) distOf(v NodeID) float64 {
	if s.nodes[v].stamp != s.gen {
		return math.Inf(1)
	}
	return s.nodes[v].dist
}

// reach records a strictly better tentative distance for v.
func (s *Searcher) reach(v NodeID, d float64, hops int32, via EdgeID) {
	s.nodes[v] = nodeState{dist: d, stamp: s.gen, done: s.nodes[v].done, hops: hops, prev: via}
	s.push(heapItem{node: v, dist: d})
}

// push is container/heap.Push: append, then sift up.
func (s *Searcher) push(it heapItem) {
	s.heap = append(s.heap, it)
	h := s.heap
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
}

// pop is container/heap.Pop: move the last item to the root, sift it
// down over the first n-1 slots, and return the old root.
func (s *Searcher) pop() heapItem {
	h := s.heap
	n := len(h) - 1
	top := h[0]
	it := h[n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < it.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
	s.heap = h[:n]
	return top
}

// ShortestPath returns the minimum-weight path from src to dst subject to
// the constraints, and whether one exists. src==dst yields the empty path.
// It returns exactly what the package-level ShortestPath returns.
func (s *Searcher) ShortestPath(g *Graph, src, dst NodeID, cons Constraints) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	n := g.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return Path{}, false
	}
	s.search(g, src, dst, cons)
	if s.nodes[dst].stamp != s.gen {
		return Path{}, false
	}
	// Reconstruct by walking predecessors.
	edges := make([]EdgeID, s.nodes[dst].hops)
	at := dst
	for i := len(edges) - 1; i >= 0; i-- {
		id := s.nodes[at].prev
		edges[i] = id
		at = g.Edge(id).From
	}
	return Path{Edges: edges, Weight: s.nodes[dst].dist}, true
}

// Tree runs the constrained search from src to completion — no
// destination early exit — and writes into prev, which must have
// NumNodes entries, each node's predecessor edge on its search path from
// src (-1 for src itself and for unreached nodes).
//
// The early-exit search for any dst pops a prefix of this search's pop
// sequence, and prev[dst] is final once dst pops: every later pop has a
// distance no smaller, so with non-negative weights no later relaxation
// is strictly better. Hence PathFromTree(g, prev, src, dst) equals
// ShortestPath(g, src, dst, cons) edge for edge, MaxHops included.
// ExcludeNodes has no destination exception here, so a tree search is
// only equivalent for constraints without ExcludeNodes.
func (s *Searcher) Tree(g *Graph, src NodeID, cons Constraints, prev []EdgeID) {
	for i := range prev {
		prev[i] = -1
	}
	if int(src) < 0 || int(src) >= g.NumNodes() {
		return
	}
	s.search(g, src, -1, cons)
	for v := range prev {
		if s.nodes[v].stamp == s.gen {
			prev[v] = s.nodes[v].prev
		}
	}
}

// search runs Dijkstra from src, stopping when dst is settled (dst < 0
// never matches, so the search runs to completion).
func (s *Searcher) search(g *Graph, src, dst NodeID, cons Constraints) {
	s.reset(g.NumNodes())
	s.reach(src, 0, 0, -1)
	for len(s.heap) > 0 {
		it := s.pop()
		v := it.node
		sv := &s.nodes[v]
		if sv.done == s.gen || it.dist > sv.dist {
			continue
		}
		sv.done = s.gen
		if v == dst {
			break
		}
		if cons.MaxHops > 0 && int(sv.hops) >= cons.MaxHops {
			continue
		}
		for _, id := range g.OutEdges(v) {
			if cons.edgeExcluded(id) {
				continue
			}
			e := g.Edge(id)
			if e.To != dst && cons.nodeExcluded(e.To) {
				continue
			}
			nd := sv.dist + e.Weight
			if nd < s.distOf(e.To) {
				s.reach(e.To, nd, sv.hops+1, id)
			}
		}
	}
}

// PathFromTree materializes the src→dst path from a predecessor array
// filled by Searcher.Tree, reporting false when dst was not reached.
// Weight is the edge weights summed from 0 along the path, the same
// accumulation Dijkstra performs, so it equals the search's distance bit
// for bit.
func PathFromTree(g *Graph, prev []EdgeID, src, dst NodeID) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	if int(src) < 0 || int(src) >= len(prev) || int(dst) < 0 || int(dst) >= len(prev) || prev[dst] < 0 {
		return Path{}, false
	}
	count := 0
	for at := dst; at != src; at = g.Edge(prev[at]).From {
		count++
	}
	edges := make([]EdgeID, count)
	at := dst
	for i := count - 1; i >= 0; i-- {
		edges[i] = prev[at]
		at = g.Edge(prev[at]).From
	}
	var w float64
	for _, id := range edges {
		w += g.Edge(id).Weight
	}
	return Path{Edges: edges, Weight: w}, true
}

var searchers = sync.Pool{New: func() any { return new(Searcher) }}

// ShortestPath returns the minimum-weight path from src to dst subject to
// the constraints, and whether one exists. src==dst yields the empty path.
// It borrows a pooled Searcher; hot loops should own one instead.
func ShortestPath(g *Graph, src, dst NodeID, cons Constraints) (Path, bool) {
	s := searchers.Get().(*Searcher)
	p, ok := s.ShortestPath(g, src, dst, cons)
	searchers.Put(s)
	return p, ok
}

// ShortestPathTree computes minimum distances from src to every node
// (ignoring constraints' MaxHops reconstruction subtleties; used for
// heuristics and validation). Unreachable nodes have +Inf distance.
func ShortestPathTree(g *Graph, src NodeID, cons Constraints) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) < 0 || int(src) >= n {
		return dist
	}
	s := searchers.Get().(*Searcher)
	defer searchers.Put(s)
	s.reset(n)
	s.reach(src, 0, 0, -1)
	for len(s.heap) > 0 {
		it := s.pop()
		if it.dist > s.nodes[it.node].dist {
			continue
		}
		for _, id := range g.OutEdges(it.node) {
			if cons.edgeExcluded(id) {
				continue
			}
			e := g.Edge(id)
			if cons.nodeExcluded(e.To) {
				continue
			}
			nd := it.dist + e.Weight
			if nd < s.distOf(e.To) {
				s.reach(e.To, nd, 0, id)
			}
		}
	}
	for v := range dist {
		dist[v] = s.distOf(NodeID(v))
	}
	return dist
}
