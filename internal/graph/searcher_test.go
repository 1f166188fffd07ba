package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oracleShortestPath is the container/heap Dijkstra the Searcher replaced,
// kept verbatim as the differential oracle: a fresh workspace per search
// and one boxed heap item per push.
func oracleShortestPath(g *Graph, src, dst NodeID, cons Constraints) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	n := g.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return Path{}, false
	}

	dist := make([]float64, n)
	hops := make([]int, n)
	prev := make([]EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	pq := &oracleHeap{items: []heapItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		v := it.node
		if done[v] || it.dist > dist[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		if cons.MaxHops > 0 && hops[v] >= cons.MaxHops {
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
			nd := dist[v] + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				hops[e.To] = hops[v] + 1
				prev[e.To] = id
				heap.Push(pq, heapItem{node: e.To, dist: nd})
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	count := hops[dst]
	edges := make([]EdgeID, count)
	at := dst
	for i := count - 1; i >= 0; i-- {
		id := prev[at]
		edges[i] = id
		at = g.Edge(id).From
	}
	return Path{Edges: edges, Weight: dist[dst]}, true
}

// oracleShortestPathTree is the container/heap ShortestPathTree the
// Searcher-backed one replaced.
func oracleShortestPathTree(g *Graph, src NodeID, cons Constraints) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) < 0 || int(src) >= n {
		return dist
	}
	dist[src] = 0
	pq := &oracleHeap{items: []heapItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		if it.dist > dist[it.node] {
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
			if nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, heapItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

type oracleHeap struct{ items []heapItem }

func (h *oracleHeap) Len() int           { return len(h.items) }
func (h *oracleHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *oracleHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *oracleHeap) Push(x interface{}) { h.items = append(h.items, x.(heapItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// oracleKey is the fmt-based Path.Key the strconv one replaced.
func oracleKey(p Path) string {
	var b strings.Builder
	for i, e := range p.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	return b.String()
}

// tieGraph builds a random directed multigraph with weights drawn from
// {0, 1, 2, 3}·scale, so equal-distance ties — and zero-weight edges —
// are common and the heap's tie order decides which path wins. With a
// scale of 0.1 the sums also round differently by order, so the weight
// must be accumulated exactly as Dijkstra does. Some nodes may be
// unreachable.
func tieGraph(rng *rand.Rand, n, edges int, scale float64) *Graph {
	g := New(n)
	for i := 0; i < edges; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if _, err := g.AddEdge(a, b, scale*float64(rng.Intn(4))); err != nil {
			panic(err)
		}
	}
	return g
}

func randomMask(rng *rand.Rand, n int, p float64) []bool {
	if rng.Intn(3) == 0 {
		return nil
	}
	m := make([]bool, rng.Intn(n+1)) // may be shorter than the id range
	for i := range m {
		m[i] = rng.Float64() < p
	}
	return m
}

func samePath(p, q Path) bool {
	return p.Equal(q) && math.Float64bits(p.Weight) == math.Float64bits(q.Weight)
}

// TestSearcherMatchesOracle is the differential test of the fast path:
// a reused Searcher, the pooled ShortestPath and (for constraints without
// node exclusions) a lowest-delay tree must return the container/heap
// oracle's path edge for edge and weight bit for bit, on random graphs
// with frequent ties, under edge/node exclusions (the destination is
// exempt from node exclusion), hop bounds, src==dst, out-of-range ids and
// unreachable pairs.
func TestSearcherMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Searcher
	checked := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(24)
		g := tieGraph(rng, n, rng.Intn(5*n), []float64{1, 0.1}[trial%2])
		cons := Constraints{
			ExcludeEdges: randomMask(rng, g.NumEdges(), 0.15),
			ExcludeNodes: randomMask(rng, n, 0.15),
		}
		if rng.Intn(2) == 0 {
			cons.MaxHops = 1 + rng.Intn(4)
		}
		for q := 0; q < 12; q++ {
			src := NodeID(rng.Intn(n+2) - 1) // -1 and n are out of range
			dst := NodeID(rng.Intn(n+2) - 1)
			if q == 0 {
				dst = src
			}
			if cons.ExcludeNodes != nil && int(dst) >= 0 && int(dst) < len(cons.ExcludeNodes) && rng.Intn(2) == 0 {
				cons.ExcludeNodes[dst] = true // destination exception
			}
			want, wantOK := oracleShortestPath(g, src, dst, cons)
			switch {
			case src == dst:
				checked["src==dst"]++
			case !wantOK:
				checked["no path"]++
			default:
				checked["path"]++
			}
			got, ok := s.ShortestPath(g, src, dst, cons)
			if ok != wantOK || !samePath(got, want) {
				t.Fatalf("trial %d: Searcher %d->%d %+v = %v %v, oracle %v %v", trial, src, dst, cons, got, ok, want, wantOK)
			}
			got, ok = ShortestPath(g, src, dst, cons)
			if ok != wantOK || !samePath(got, want) {
				t.Fatalf("trial %d: pooled %d->%d = %v %v, oracle %v %v", trial, src, dst, got, ok, want, wantOK)
			}
			treeCons := cons
			treeCons.ExcludeNodes = nil
			want, wantOK = oracleShortestPath(g, src, dst, treeCons)
			prev := make([]EdgeID, n)
			s.Tree(g, src, treeCons, prev)
			got, ok = PathFromTree(g, prev, src, dst)
			if ok != wantOK || !samePath(got, want) {
				t.Fatalf("trial %d: tree %d->%d %+v = %v %v, oracle %v %v", trial, src, dst, treeCons, got, ok, want, wantOK)
			}
		}
		src := NodeID(rng.Intn(n+2) - 1)
		want := oracleShortestPathTree(g, src, cons)
		got := ShortestPathTree(g, src, cons)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("trial %d: ShortestPathTree(%d)[%d] = %v, oracle %v", trial, src, v, got[v], want[v])
			}
		}
	}
	for _, kind := range []string{"src==dst", "no path", "path"} {
		if checked[kind] == 0 {
			t.Errorf("no %s case exercised", kind)
		}
	}
}

// TestSearcherGrowsAcrossGraphs reuses one Searcher over graphs of
// different sizes, small after large, so stale stamps from a bigger
// search can never leak into a smaller one.
func TestSearcherGrowsAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Searcher
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := tieGraph(rng, n, 3*n, 1)
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		want, wantOK := oracleShortestPath(g, src, dst, Constraints{})
		got, ok := s.ShortestPath(g, src, dst, Constraints{})
		if ok != wantOK || !samePath(got, want) {
			t.Fatalf("trial %d (n=%d): %v %v, oracle %v %v", trial, n, got, ok, want, wantOK)
		}
	}
}

// TestSearcherGenerationWrap forces the generation counter through its
// wrap-around and checks searches stay correct on both sides of it.
func TestSearcherGenerationWrap(t *testing.T) {
	g := diamond(t)
	var s Searcher
	want, _ := oracleShortestPath(g, 0, 3, Constraints{})
	s.ShortestPath(g, 0, 3, Constraints{})
	s.gen = math.MaxUint32 - 1
	for i := 0; i < 4; i++ {
		got, ok := s.ShortestPath(g, 0, 3, Constraints{})
		if !ok || !samePath(got, want) {
			t.Fatalf("search %d around the wrap (gen %d): %v %v, want %v", i, s.gen, got, ok, want)
		}
	}
}

// TestSearcherAllocs gates the warm Searcher exactly: one allocation (the
// returned edges) when a path exists, none when it does not.
func TestSearcherAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 120)
	var s Searcher
	s.ShortestPath(g, 0, 59, Constraints{}) // warm: size the arrays and heap
	if a := testing.AllocsPerRun(100, func() { s.ShortestPath(g, 0, 59, Constraints{}) }); a != 1 {
		t.Errorf("warm search with a path: %v allocs, want 1", a)
	}
	cut := make([]bool, g.NumEdges())
	for _, id := range g.OutEdges(0) {
		cut[id] = true
	}
	none := Constraints{ExcludeEdges: cut}
	if _, ok := s.ShortestPath(g, 0, 59, none); ok {
		t.Fatal("search with every source edge excluded found a path")
	}
	if a := testing.AllocsPerRun(100, func() { s.ShortestPath(g, 0, 59, none) }); a != 0 {
		t.Errorf("warm search without a path: %v allocs, want 0", a)
	}
}

// TestPathKeyMatchesFmt pins Key byte-equal to the fmt implementation it
// replaced: KShortestPaths orders equal-weight results by Key.
func TestPathKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []Path{{}, {Edges: []EdgeID{0}}, {Edges: []EdgeID{math.MaxInt32, 0, -1}}}
	for i := 0; i < 500; i++ {
		p := Path{Edges: make([]EdgeID, rng.Intn(12))}
		for j := range p.Edges {
			p.Edges[j] = EdgeID(rng.Int63n(1 << uint(1+rng.Intn(31))))
		}
		cases = append(cases, p)
	}
	for _, p := range cases {
		if got, want := p.Key(), oracleKey(p); got != want {
			t.Fatalf("Key(%v) = %q, want %q", p.Edges, got, want)
		}
		if got := string(p.AppendKey([]byte("x"))); got != "x"+oracleKey(p) {
			t.Fatalf("AppendKey(%v) = %q", p.Edges, got)
		}
	}
}
