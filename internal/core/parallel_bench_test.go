package core

import (
	"context"
	"fmt"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// benchOptimizer builds an optimizer over the bundled congested ring
// instance, primed to the state step() sees on the first pass: initial
// allocation placed, model evaluated, congested links ranked.
func benchOptimizer(b *testing.B, workers int) (*Optimizer, float64, []graph.EdgeID, []graph.EdgeID) {
	b.Helper()
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(33)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(model, Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if err := o.initAllocation(); err != nil {
		b.Fatal(err)
	}
	res := o.evaluate()
	if len(res.Congested) == 0 {
		b.Fatal("bench instance is not congested")
	}
	congested := append([]graph.EdgeID(nil), res.Congested...)
	links := o.model.CongestedByOversubscription(res)
	return o, res.NetworkUtility, congested, links
}

// BenchmarkStepCandidates measures one step's candidate fan-out — collect
// plus evaluation over the most congested link — at several worker counts
// and both candidate-evaluation strategies. This is the optimizer's hot
// path; delta=auto vs delta=off is the headline algorithmic speedup, the
// worker scaling the concurrency one (it saturates at the core count).
func BenchmarkStepCandidates(b *testing.B) {
	for _, delta := range []DeltaMode{DeltaAuto, DeltaOff} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("delta=%s/workers=%d", delta, workers), func(b *testing.B) {
				o, u, congested, links := benchOptimizer(b, workers)
				o.opts.DeltaEval = delta
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cands := o.collectCandidates(links[0], congested, o.opts.MoveFraction)
					if len(cands) == 0 {
						b.Fatal("no candidates collected")
					}
					// Mirror step(): the delta path patches the semi-dense
					// list against a base snapshot, the full path patches
					// per-candidate positive lists.
					// Dropping the live base makes every iteration pay
					// the capture a step without a carried-over base pays.
					if delta == DeltaAuto {
						dense := o.buildStepBundles(cands)
						o.baseLive = false
						o.prepareBase(dense)
						o.evaluateCandidates(cands, dense, o.base)
					} else {
						o.evaluateCandidates(cands, o.buildBundles(), nil)
					}
					// Selection without commit keeps every iteration identical.
					best := u
					for j := range cands {
						if cands[j].utility > best+o.opts.MinGain {
							best = cands[j].utility
						}
					}
				}
			})
		}
	}
}

// BenchmarkRunWorkers measures a whole optimization end to end at several
// worker counts.
func BenchmarkRunWorkers(b *testing.B) {
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(33)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model, err := flowmodel.New(topo, mat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(context.Background(), model, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
