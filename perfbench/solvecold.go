package main

import (
	"fmt"
	"time"

	"fubar"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// member is one relabeled instance of a run's pool with its session
// and, once solved, its reference solution.
type member struct {
	seed int64
	topo *fubar.Topology
	mat  *fubar.Matrix
	s    *fubar.Session
	ref  *fubar.Solution
}

// poolSeed is the input seed of pool member k of a run seeded seed.
// Member 0 is always the gate input (gateSeed), measured in every run
// and fingerprinted against baseline.json; the others are drawn from
// the run seed, disjoint for distinct run seeds.
func poolSeed(seed int64, k, pool int) int64 {
	if k == 0 {
		return gateSeed
	}
	return seed*int64(pool) + int64(k)
}

// poolSeeds lists a run's pool seeds.
func poolSeeds(seed int64, pool int) []int64 {
	out := make([]int64, pool)
	for k := range out {
		out[k] = poolSeed(seed, k, pool)
	}
	return out
}

// runSolveCold times repeated cold Session.Optimize calls (Reset
// between them) at Workers = nproc, cycling over a pool of relabeled
// scale-m instances drawn from the seed. Each member's first solve is
// its reference and warms its session's arenas; it is not timed. Every
// timed solve must repeat its member's reference exactly.
func runSolveCold(b *bench) error {
	sh := b.shape
	b.seeds["instances"] = fmt.Sprintf("%s@%d relabeled by seeds %v", sh.solvePreset, instanceSeed, poolSeeds(b.seed, sh.solvePool))
	obs := &stepMarks{}
	var opts []fubar.SessionOption
	if b.trace {
		opts = append(opts, fubar.WithObserver(obs.mark))
	}
	var pool []*member
	setups := make([]float64, 0, setupReps)
	for range setupReps {
		t0 := time.Now()
		pool = pool[:0]
		for k := range sh.solvePool {
			m := &member{seed: poolSeed(b.seed, k, sh.solvePool)}
			var err error
			if m.topo, m.mat, err = relabeledInstance(sh.solvePreset, m.seed); err != nil {
				return err
			}
			if m.s, err = fubar.NewSession(m.topo, m.mat, append(opts, fubar.WithWorkers(b.workers))...); err != nil {
				return err
			}
			pool = append(pool, m)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setups), "s", len(setups))
	var util, mods []float64
	for _, m := range pool {
		var err error
		if m.ref, err = m.s.Optimize(b.ctx); err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		b.op("reference solve allocation", checkBundles(m.topo, m.mat, m.ref.Bundles))
		util = append(util, m.ref.Utility)
		mods = append(mods, float64(installedPairs(m.ref.Bundles)))
	}
	if sh.gate {
		b.op("deterministic gate", gateSolveCold(pool[0].ref))
	}

	if !b.trace {
		secs := solveLoop(b, pool, b.seconds, nil, nil)
		b.set("solve_s_p50", median(secs), "s", len(secs))
		b.set("epoch_ms_mean", mean(secs)*1e3, "ms", len(secs))
		b.set("epoch_ms_p90", quantile(secs, 0.90)*1e3, "ms", len(secs))
		b.set("first_epoch_ms_p50", median(secs)*1e3, "ms", len(secs))
		b.set("utility_mean", mean(util), "utility", len(util))
		b.set("flowmods_per_epoch", mean(mods), "count", len(mods))
		return nil
	}

	untraced := solveLoop(b, pool, b.seconds/2, nil, nil)
	n0 := b.spans.count()
	t0 := time.Now()
	traced := solveLoop(b, pool, b.seconds/2, obs, b.spans)
	share := layersShare(b.spans.since(n0), time.Since(t0))
	b.op("traced layers add up", checkLayers(share))
	b.set("bench.layers_sum_share", share, "ratio", 1)
	b.set("bench.trace_overhead_pct", (median(traced)/median(untraced)-1)*100, "%", len(traced)+len(untraced))
	return probeLayers(b, layerInput{topo: pool[0].topo, mat: pool[0].mat})
}

// stepMarks is an Options.Trace observer recording when each callback
// fired: after the initial evaluation and after every committed step.
// It runs on the goroutine that called Optimize and records only while
// on is set.
type stepMarks struct {
	on bool
	at []time.Time
}

func (m *stepMarks) mark(fubar.Snapshot) {
	if m.on {
		m.at = append(m.at, time.Now())
	}
}

// solveLoop runs rounds of cold solves, one per pool member, until dur
// has passed (at least one round; rounds always complete, so every run
// weighs its members equally), checking each against its member's
// reference, and returns their wall times in seconds. With a recorder
// (and the pool's observer obs) it records one trace per solve: the
// benchmark's operation span around a core.Run span whose children are
// the initial placement (core.init), each committed step (core.step)
// and the final failed passes (core.finish).
func solveLoop(b *bench, pool []*member, dur time.Duration, obs *stepMarks, rec *recorder) []float64 {
	var secs []float64
	end := deadline(dur)
	for i := 0; i == 0 || i%len(pool) != 0 || time.Now().Before(end); i++ {
		m := pool[i%len(pool)]
		m.s.Reset()
		if obs != nil {
			obs.on, obs.at = true, obs.at[:0]
		}
		t0 := time.Now()
		sol, err := m.s.Optimize(b.ctx)
		t1 := time.Now()
		if obs != nil {
			obs.on = false
		}
		if err == nil {
			err = sameOutcome(m.ref, sol)
		}
		if err == nil {
			err = checkBundles(m.topo, m.mat, sol.Bundles)
		}
		b.op("cold solve", err)
		secs = append(secs, t1.Sub(t0).Seconds())
		if rec == nil {
			continue
		}
		tr := rec.newID()
		root := rec.add("bench.op", tr, 0, t0, time.Now())
		run := rec.add("core.Run", tr, root, t0, t1)
		prev, name := t0, "core.init"
		for _, at := range obs.at {
			rec.add(name, tr, run, prev, at)
			prev, name = at, "core.step"
		}
		rec.add("core.finish", tr, run, prev, t1)
	}
	return secs
}

// installedPairs counts the (aggregate, path) pairs carrying flows: the
// flow-table operations that install the allocation from scratch.
func installedPairs(bundles []fubar.Bundle) int {
	n := 0
	for _, bd := range bundles {
		if bd.Flows > 0 && len(bd.Edges) > 0 {
			n++
		}
	}
	return n
}

// gateSolveCold compares the gate member's reference solve with the
// checked-in baseline.
func gateSolveCold(sol *fubar.Solution) error {
	return checkGate("solve-cold", map[string]any{
		"utility_bits":  utilityBits(sol.Utility),
		"steps":         sol.Steps,
		"escalations":   sol.Escalations,
		"stop":          sol.Stop.String(),
		"candidates":    sol.Delta.Calls,
		"base_captures": sol.Base.Captures,
		"base_rebases":  sol.Base.Rebases,
		"flowmods":      installedPairs(sol.Bundles),
	})
}
