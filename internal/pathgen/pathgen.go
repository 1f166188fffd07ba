// Package pathgen implements FUBAR's path generation (§2.4 of the paper).
//
// The default path for an aggregate is the lowest-delay policy-compliant
// path. When the traffic model predicts congestion, the generator produces
// up to three alternatives for each congested aggregate:
//
//  1. the *global* path — lowest delay avoiding every congested link in
//     the network (maximum fresh capacity, possibly high delay);
//  2. the *local* path — lowest delay avoiding the congested links the
//     aggregate itself uses (the middle ground);
//  3. the *link-local* path — lowest delay avoiding only the single most
//     congested link the aggregate uses (lowest delay, may still hit
//     congestion elsewhere).
//
// All searches honor an operator Policy (hop bound, forbidden links,
// optional delay ceiling).
package pathgen

import (
	"fmt"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// Policy restricts which paths are acceptable to the operator (§2.4's
// "policy compliant"). The zero value permits everything.
type Policy struct {
	// MaxHops bounds path length in links; 0 means unbounded.
	MaxHops int
	// ForbiddenLinks marks links no path may use (administratively down
	// or excluded); indexed by LinkID, may be shorter than NumLinks.
	ForbiddenLinks []bool
	// MaxDelay rejects paths whose one-way delay exceeds it; 0 means
	// unbounded.
	MaxDelay unit.Delay
}

// ForbidLinks returns a ForbiddenLinks mask over the topology with each
// given physical link marked in both directions. IDs outside the
// topology are ignored. It centralizes the "forbid the link and its
// reverse" dance the failure experiments and the scenario engine share.
func ForbidLinks(topo *topology.Topology, links ...topology.LinkID) []bool {
	mask := make([]bool, topo.NumLinks())
	for _, id := range links {
		if int(id) < 0 || int(id) >= len(mask) {
			continue
		}
		mask[id] = true
		if r := topo.Link(id).Reverse; r >= 0 {
			mask[r] = true
		}
	}
	return mask
}

// Generator produces policy-compliant paths over one topology. It owns a
// reusable graph.Searcher, so a warm generator allocates nothing per search
// except the returned path's edges, and answers LowestDelay from one cached
// lowest-delay tree per source. Not safe for concurrent use.
type Generator struct {
	topo   *topology.Topology
	policy Policy

	lowest   map[pairKey]cachedPath
	trees    [][]graph.EdgeID // trees[src]: predecessor edges, nil until built
	forbid   []bool           // policy.ForbiddenLinks over the full link range
	exclude  []bool           // scratch merged exclusion set
	searcher graph.Searcher
	stats    Stats
}

// Stats counts the path searches a Generator has run since it was built.
type Stats struct {
	// Searches counts early-exit constrained searches: one per Avoiding
	// or AvoidingLink call, three per Alternatives call.
	Searches int
	// Trees counts lowest-delay trees: one per source the first time
	// LowestDelay misses its cache for that source.
	Trees int
}

type pairKey struct{ src, dst graph.NodeID }

type cachedPath struct {
	path graph.Path
	ok   bool
}

// New builds a generator for the topology under the policy.
func New(topo *topology.Topology, policy Policy) (*Generator, error) {
	if topo == nil {
		return nil, fmt.Errorf("pathgen: nil topology")
	}
	if policy.MaxHops < 0 {
		return nil, fmt.Errorf("pathgen: negative MaxHops %d", policy.MaxHops)
	}
	if policy.MaxDelay < 0 {
		return nil, fmt.Errorf("pathgen: negative MaxDelay %v", policy.MaxDelay)
	}
	if len(policy.ForbiddenLinks) > topo.NumLinks() {
		return nil, fmt.Errorf("pathgen: ForbiddenLinks longer than link count")
	}
	forbid := make([]bool, topo.NumLinks())
	copy(forbid, policy.ForbiddenLinks)
	return &Generator{
		topo:    topo,
		policy:  policy,
		lowest:  make(map[pairKey]cachedPath),
		trees:   make([][]graph.EdgeID, topo.NumNodes()),
		forbid:  forbid,
		exclude: make([]bool, topo.NumLinks()),
	}, nil
}

// Topology returns the generator's topology.
func (g *Generator) Topology() *topology.Topology { return g.topo }

// Stats reports the searches run so far.
func (g *Generator) Stats() Stats { return g.stats }

// LowestDelay returns the lowest-delay policy-compliant path between two
// nodes, caching the result. src==dst yields the empty path.
//
// A cache miss materializes the path from src's lowest-delay tree,
// building the tree with one full policy search the first time src is
// seen. The path is the one the per-pair search Avoiding(src, dst, nil)
// returns, edge for edge and weight bit for bit (see graph.Searcher.Tree);
// MaxDelay stays a per-path check.
func (g *Generator) LowestDelay(src, dst graph.NodeID) (graph.Path, bool) {
	key := pairKey{src, dst}
	if c, ok := g.lowest[key]; ok {
		return c.path, c.ok
	}
	p, ok := g.fromTree(src, dst)
	g.lowest[key] = cachedPath{path: p, ok: ok}
	return p, ok
}

func (g *Generator) fromTree(src, dst graph.NodeID) (graph.Path, bool) {
	if src == dst {
		return graph.Path{}, true
	}
	if int(src) < 0 || int(src) >= len(g.trees) {
		return graph.Path{}, false
	}
	tree := g.trees[src]
	if tree == nil {
		tree = make([]graph.EdgeID, len(g.trees))
		g.searcher.Tree(g.topo.Graph(), src, g.policyConstraints(g.forbid), tree)
		g.trees[src] = tree
		g.stats.Trees++
	}
	p, ok := graph.PathFromTree(g.topo.Graph(), tree, src, dst)
	return g.withinDelay(p, ok)
}

// Avoiding returns the lowest-delay policy-compliant path that avoids the
// marked links. A nil avoid set is equivalent to LowestDelay (uncached).
func (g *Generator) Avoiding(src, dst graph.NodeID, avoid []bool) (graph.Path, bool) {
	return g.search(src, dst, avoid)
}

// AvoidingLink returns the lowest-delay policy-compliant path avoiding a
// single link.
func (g *Generator) AvoidingLink(src, dst graph.NodeID, link graph.EdgeID) (graph.Path, bool) {
	copy(g.exclude, g.forbid)
	if int(link) >= 0 && int(link) < len(g.exclude) {
		g.exclude[link] = true
	}
	return g.constrainedSearch(src, dst)
}

// Alternatives is the §2.4 trio. Each member may be absent (Has* false)
// when no policy-compliant path exists under its exclusion set.
type Alternatives struct {
	Global       graph.Path
	HasGlobal    bool
	Local        graph.Path
	HasLocal     bool
	LinkLocal    graph.Path
	HasLinkLocal bool
}

// Paths lists the present alternatives, global first.
func (a Alternatives) Paths() []graph.Path {
	out := make([]graph.Path, 0, 3)
	if a.HasGlobal {
		out = append(out, a.Global)
	}
	if a.HasLocal {
		out = append(out, a.Local)
	}
	if a.HasLinkLocal {
		out = append(out, a.LinkLocal)
	}
	return out
}

// Request describes one congested aggregate's situation.
type Request struct {
	Src, Dst graph.NodeID
	// CongestedAll marks every congested link in the network.
	CongestedAll []bool
	// CongestedUsed marks the congested links used by this aggregate's
	// current bundles (a subset of CongestedAll).
	CongestedUsed []bool
	// MostCongested is the single most oversubscribed link used by the
	// aggregate (the one step() is trying to relieve).
	MostCongested graph.EdgeID
}

// Alternatives computes the global / local / link-local trio for a
// congested aggregate.
func (g *Generator) Alternatives(req Request) Alternatives {
	var out Alternatives
	out.Global, out.HasGlobal = g.search(req.Src, req.Dst, req.CongestedAll)
	out.Local, out.HasLocal = g.search(req.Src, req.Dst, req.CongestedUsed)
	out.LinkLocal, out.HasLinkLocal = g.AvoidingLink(req.Src, req.Dst, req.MostCongested)
	return out
}

// search runs a constrained Dijkstra merging the policy's forbidden links
// with the given avoid set.
func (g *Generator) search(src, dst graph.NodeID, avoid []bool) (graph.Path, bool) {
	copy(g.exclude, g.forbid)
	for i, bad := range avoid {
		if bad && i < len(g.exclude) {
			g.exclude[i] = true
		}
	}
	return g.constrainedSearch(src, dst)
}

func (g *Generator) policyConstraints(exclude []bool) graph.Constraints {
	return graph.Constraints{ExcludeEdges: exclude, MaxHops: g.policy.MaxHops}
}

func (g *Generator) constrainedSearch(src, dst graph.NodeID) (graph.Path, bool) {
	g.stats.Searches++
	return g.withinDelay(g.searcher.ShortestPath(g.topo.Graph(), src, dst, g.policyConstraints(g.exclude)))
}

// withinDelay applies the policy's delay ceiling to a search result.
func (g *Generator) withinDelay(p graph.Path, ok bool) (graph.Path, bool) {
	if !ok {
		return graph.Path{}, false
	}
	if g.policy.MaxDelay > 0 && g.topo.PathDelay(p) > g.policy.MaxDelay {
		return graph.Path{}, false
	}
	return p, true
}

// KLowestDelay returns up to k policy-compliant paths in increasing delay
// order (used by ablations and as a CSPF-style baseline input).
func (g *Generator) KLowestDelay(src, dst graph.NodeID, k int) []graph.Path {
	paths := graph.KShortestPaths(g.topo.Graph(), src, dst, k, g.policyConstraints(g.forbid))
	if g.policy.MaxDelay <= 0 {
		return paths
	}
	out := paths[:0]
	for _, p := range paths {
		if g.topo.PathDelay(p) <= g.policy.MaxDelay {
			out = append(out, p)
		}
	}
	return out
}
