package main

import (
	"fmt"
	"math/rand"

	"fubar"
)

// instanceSeed is the preset instance every workload runs: the same
// network for every --seed (see the package comment).
const instanceSeed = 1

// relabeledInstance builds the preset's instance at instanceSeed and
// returns an isomorphic copy drawn from seed: nodes renumbered, physical
// links added in a shuffled order and orientation, aggregates shuffled.
// Capacities, delays, flow counts and utility functions are unchanged,
// so the optimum is the same network problem under new numbering.
func relabeledInstance(preset string, seed int64) (*fubar.Topology, *fubar.Matrix, error) {
	topo, mat, err := fubar.ScaleInstance(preset, instanceSeed)
	if err != nil {
		return nil, nil, err
	}
	return relabel(topo, mat, seed)
}

// relabel returns an isomorphic copy of (topo, mat) whose numbering is
// drawn from seed.
func relabel(topo *fubar.Topology, mat *fubar.Matrix, seed int64) (*fubar.Topology, *fubar.Matrix, error) {
	rng := rand.New(rand.NewSource(seed))
	n := topo.NumNodes()
	perm := rng.Perm(n) // old node index -> new node index
	names := make([]string, n)
	byNew := make([]int, n)
	for old, nw := range perm {
		names[old] = fmt.Sprintf("v%d", nw)
		byNew[nw] = old
	}
	b := fubar.NewTopology(topo.Name())
	for _, old := range byNew {
		b.AddNode(names[old])
	}
	var phys []fubar.Link
	for _, l := range topo.Links() {
		if l.Reverse < 0 || l.ID < l.Reverse {
			phys = append(phys, l)
		}
	}
	rng.Shuffle(len(phys), func(i, j int) { phys[i], phys[j] = phys[j], phys[i] })
	for _, l := range phys {
		from, to := names[l.From], names[l.To]
		if l.Reverse < 0 {
			b.AddOneWayLink(from, to, l.Capacity, l.Delay)
			continue
		}
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		b.AddLink(from, to, l.Capacity, l.Delay)
	}
	nt, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("relabel topology: %w", err)
	}
	aggs := mat.Aggregates()
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	for i := range aggs {
		src, _ := nt.NodeByName(names[aggs[i].Src])
		dst, _ := nt.NodeByName(names[aggs[i].Dst])
		aggs[i].ID = fubar.AggregateID(i)
		aggs[i].Src, aggs[i].Dst = src, dst
	}
	nm, err := fubar.NewMatrix(nt, aggs)
	if err != nil {
		return nil, nil, fmt.Errorf("relabel matrix: %w", err)
	}
	return nt, nm, nil
}
