package graph

import (
	"container/heap"
	"sort"
)

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order using Yen's algorithm, subject to the given
// base constraints. It returns fewer than k paths when the graph does not
// contain that many distinct loop-free paths.
func KShortestPaths(g *Graph, src, dst NodeID, k int, cons Constraints) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	s := searchers.Get().(*Searcher)
	defer searchers.Put(s)
	first, ok := s.ShortestPath(g, src, dst, cons)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{first.Key(): true}
	candidates := &pathHeap{}

	excludeEdges := make([]bool, g.NumEdges())
	excludeNodes := make([]bool, g.NumNodes())

	for len(result) < k {
		prevPath := result[len(result)-1]
		prevNodes := prevPath.Nodes(g)
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prevNodes)-1; i++ {
			spurNode := prevNodes[i]
			rootEdges := prevPath.Edges[:i]

			// Reset the scratch exclusion sets.
			for j := range excludeEdges {
				excludeEdges[j] = false
			}
			for j := range excludeNodes {
				excludeNodes[j] = false
			}
			// Merge base constraints.
			for j := range cons.ExcludeEdges {
				if cons.ExcludeEdges[j] {
					excludeEdges[j] = true
				}
			}
			for j := range cons.ExcludeNodes {
				if cons.ExcludeNodes[j] {
					excludeNodes[j] = true
				}
			}
			// Remove edges used by previous result paths that share the
			// same root prefix.
			for _, p := range result {
				if sharesPrefix(p.Edges, rootEdges) && len(p.Edges) > i {
					excludeEdges[p.Edges[i]] = true
				}
			}
			// Remove the root's interior nodes so the spur stays loop-free.
			for j := 0; j < i; j++ {
				excludeNodes[prevNodes[j]] = true
			}

			spurCons := Constraints{
				ExcludeEdges: excludeEdges,
				ExcludeNodes: excludeNodes,
			}
			if cons.MaxHops > 0 {
				remaining := cons.MaxHops - len(rootEdges)
				if remaining <= 0 {
					continue
				}
				spurCons.MaxHops = remaining
			}
			spur, ok := s.ShortestPath(g, spurNode, dst, spurCons)
			if !ok {
				continue
			}
			total := Path{
				Edges:  append(append([]EdgeID(nil), rootEdges...), spur.Edges...),
				Weight: pathWeight(g, rootEdges) + spur.Weight,
			}
			key := total.Key()
			if !seen[key] {
				seen[key] = true
				heap.Push(candidates, total)
			}
		}
		if candidates.Len() == 0 {
			break
		}
		next := heap.Pop(candidates).(Path)
		result = append(result, next)
	}
	// Yen yields sorted output by construction, but candidate ties can
	// interleave; normalize deterministically by (weight, key).
	sort.SliceStable(result, func(i, j int) bool {
		if result[i].Weight != result[j].Weight {
			return result[i].Weight < result[j].Weight
		}
		return result[i].Key() < result[j].Key()
	})
	return result
}

func sharesPrefix(edges, prefix []EdgeID) bool {
	if len(edges) < len(prefix) {
		return false
	}
	for i, e := range prefix {
		if edges[i] != e {
			return false
		}
	}
	return true
}

func pathWeight(g *Graph, edges []EdgeID) float64 {
	var w float64
	for _, id := range edges {
		w += g.Edge(id).Weight
	}
	return w
}

type pathHeap struct{ items []Path }

func (h *pathHeap) Len() int           { return len(h.items) }
func (h *pathHeap) Less(i, j int) bool { return h.items[i].Weight < h.items[j].Weight }
func (h *pathHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *pathHeap) Push(x interface{}) { h.items = append(h.items, x.(Path)) }
func (h *pathHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
