package pathgen

import (
	"math"
	"math/rand"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// TestLowestDelayTreeMatchesSearch is the differential test of the
// per-source lowest-delay tree: over every ordered pair, the tree-backed
// LowestDelay must return what the uncached per-pair search
// Avoiding(src, dst, nil) returns, edge for edge and weight bit for bit,
// under forbidden links, hop bounds and delay ceilings. The grid has
// uniform delays, so equal-delay ties are everywhere.
func TestLowestDelayTreeMatchesSearch(t *testing.T) {
	grid, err := topology.Grid(5, 5, 100*unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := topology.Waxman(40, 0.3, 0.15, 100*unit.Mbps, 50*unit.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, topo := range []*topology.Topology{grid, wax} {
		forbid := make([]bool, topo.NumLinks())
		for i := range forbid {
			forbid[i] = rng.Intn(8) == 0
		}
		for _, e := range topo.Graph().OutEdges(0) {
			forbid[e] = true // node 0 reaches nothing: unroutable pairs
		}
		policies := map[string]Policy{
			"none":      {},
			"forbidden": {ForbiddenLinks: forbid},
			"max hops":  {MaxHops: 4},
			"max delay": {MaxDelay: 30 * unit.Millisecond},
			"all":       {ForbiddenLinks: forbid[:len(forbid)/2], MaxHops: 6, MaxDelay: 40 * unit.Millisecond},
		}
		for name, pol := range policies {
			tree, err := New(topo, pol)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := New(topo, pol)
			if err != nil {
				t.Fatal(err)
			}
			n := topo.NumNodes()
			found, missing := 0, 0
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					s, d := graph.NodeID(src), graph.NodeID(dst)
					want, wantOK := pair.Avoiding(s, d, nil)
					got, ok := tree.LowestDelay(s, d)
					if ok != wantOK || !got.Equal(want) ||
						math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
						t.Fatalf("%s %s: LowestDelay(%d,%d) = %v %v %v, search %v %v %v",
							topo.Name(), name, src, dst, got.Edges, got.Weight, ok, want.Edges, want.Weight, wantOK)
					}
					if ok {
						found++
					} else {
						missing++
					}
				}
			}
			if st := tree.Stats(); st.Trees != n || st.Searches != 0 {
				t.Errorf("%s %s: tree generator stats %+v, want %d trees and no searches", topo.Name(), name, st, n)
			}
			if st := pair.Stats(); st.Searches != n*n || st.Trees != 0 {
				t.Errorf("%s %s: search generator stats %+v, want %d searches", topo.Name(), name, st, n*n)
			}
			if name == "none" && missing != 0 {
				t.Errorf("%s: %d pairs unroutable without a policy", topo.Name(), missing)
			}
			if name != "none" && (found == 0 || missing == 0) {
				t.Errorf("%s %s: policy exercised nothing (%d found, %d missing)", topo.Name(), name, found, missing)
			}
		}
	}
}

// TestLowestDelayOutOfRange checks the tree path keeps the search's
// answers at the edges of the id range.
func TestLowestDelayOutOfRange(t *testing.T) {
	topo := fourSquare(t)
	g, err := New(topo, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(topo.NumNodes())
	for _, pr := range [][2]graph.NodeID{{-1, 0}, {0, -1}, {n, 0}, {0, n}} {
		if p, ok := g.LowestDelay(pr[0], pr[1]); ok || !p.Empty() {
			t.Errorf("LowestDelay(%d,%d) = %v %v, want no path", pr[0], pr[1], p, ok)
		}
	}
	if p, ok := g.LowestDelay(-1, -1); !ok || !p.Empty() {
		t.Errorf("LowestDelay(-1,-1) = %v %v, want the empty path", p, ok)
	}
}

// TestGeneratorAllocs gates the warm generator exactly: an Alternatives
// call allocates only its (at most three) returned paths, and a cached
// LowestDelay hit allocates nothing.
func TestGeneratorAllocs(t *testing.T) {
	in := scaleS(t)
	gen, err := New(in.topo, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	req := in.reqs[0]
	gen.Alternatives(req) // warm: size the searcher
	if a := testing.AllocsPerRun(100, func() { gen.Alternatives(req) }); a > 3 {
		t.Errorf("warm Alternatives: %v allocs, want <= 3", a)
	}
	a0 := in.mat.Aggregate(0)
	gen.LowestDelay(a0.Src, a0.Dst)
	if a := testing.AllocsPerRun(100, func() { gen.LowestDelay(a0.Src, a0.Dst) }); a != 0 {
		t.Errorf("cached LowestDelay: %v allocs, want 0", a)
	}
}

// TestPathSetLookupAllocs gates PathSet lookups: Contains and IndexOf
// build the key in the set's scratch buffer, so they allocate nothing.
func TestPathSetLookupAllocs(t *testing.T) {
	s := NewPathSet(0)
	p := graph.Path{Edges: []graph.EdgeID{3, 14, 159}}
	s.Add(p)
	q := graph.Path{Edges: []graph.EdgeID{2, 71}}
	if a := testing.AllocsPerRun(100, func() {
		s.Contains(p)
		s.IndexOf(q)
	}); a != 0 {
		t.Errorf("PathSet lookups: %v allocs, want 0", a)
	}
}

// scaleInstance is the scale-s preset's instance (100-node Waxman, 1500
// sparse aggregates; see scenario.ScalePresets) and the congested
// aggregates' pathgen requests on its lowest-delay placement, built the
// way the optimizer's step builds them.
type scaleInstance struct {
	topo *topology.Topology
	mat  *traffic.Matrix
	reqs []Request
}

func scaleS(tb testing.TB) scaleInstance {
	tb.Helper()
	topo, err := topology.Waxman(100, 0.25, 0.15, 16*unit.Mbps, 50*unit.Millisecond, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(2)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, 1500)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := New(topo, Policy{})
	if err != nil {
		tb.Fatal(err)
	}
	bundles := make([]flowmodel.Bundle, 0, mat.NumAggregates())
	for _, a := range mat.Aggregates() {
		p, ok := gen.LowestDelay(a.Src, a.Dst)
		if !ok {
			tb.Fatalf("aggregate %d unroutable", a.ID)
		}
		bundles = append(bundles, flowmodel.NewBundle(topo, a.ID, a.Flows, p))
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		tb.Fatal(err)
	}
	res := model.NewEval().Evaluate(bundles)
	in := scaleInstance{topo: topo, mat: mat}
	for _, b := range bundles {
		used := make([]bool, topo.NumLinks())
		most, worst := graph.EdgeID(-1), 0.0
		for _, e := range b.Edges {
			if !res.IsCongested[e] {
				continue
			}
			used[e] = true
			if over := res.LinkDemand[e] / float64(topo.Capacity(e)); most < 0 || over > worst {
				most, worst = e, over
			}
		}
		if most >= 0 {
			a := mat.Aggregate(b.Agg)
			in.reqs = append(in.reqs, Request{Src: a.Src, Dst: a.Dst,
				CongestedAll: res.IsCongested, CongestedUsed: used, MostCongested: most})
		}
	}
	if len(in.reqs) == 0 {
		tb.Fatal("scale-s lowest-delay placement is not congested")
	}
	return in
}

// BenchmarkShortestPath times the pooled graph.ShortestPath avoiding
// every congested link, once per congested scale-s aggregate.
func BenchmarkShortestPath(b *testing.B) {
	in := scaleS(b)
	g := in.topo.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := in.reqs[i%len(in.reqs)]
		graph.ShortestPath(g, r.Src, r.Dst, graph.Constraints{ExcludeEdges: r.CongestedAll})
	}
}

// BenchmarkAlternatives times the §2.4 trio on a warm generator, once
// per congested scale-s aggregate.
func BenchmarkAlternatives(b *testing.B) {
	in := scaleS(b)
	gen, err := New(in.topo, Policy{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Alternatives(in.reqs[i%len(in.reqs)])
	}
}

// BenchmarkLowestDelaySweep times the lowest-delay sweep over all 1500
// scale-s aggregates on a fresh generator, as every replay epoch runs it.
func BenchmarkLowestDelaySweep(b *testing.B) {
	in := scaleS(b)
	aggs := in.mat.Aggregates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := New(in.topo, Policy{})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range aggs {
			gen.LowestDelay(a.Src, a.Dst)
		}
	}
}
