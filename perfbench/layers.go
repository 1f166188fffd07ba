package main

import (
	"context"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"time"

	"fubar"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/graph"
	"fubar/internal/measure"
	"fubar/internal/mpls"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
)

const (
	// maxRequests caps the congested requests the search probes time.
	maxRequests = 400
	// probeReps is how often the single-shot probes repeat (median).
	probeReps = 5
	// candidateBenchSteps bounds the paired full/delta candidate bench.
	candidateBenchSteps = 4
	// probeEpochs is the length of the probe replay of a workload whose
	// loop has no warm epochs.
	probeEpochs = 3
	// probeTenants is how many tenants the daemon probe creates.
	probeTenants = 3
	// installReps and statsReps size the control-plane probe.
	installReps = 10
	statsReps   = 10
)

// layerInput is what the per-layer probes of one traced run use.
type layerInput struct {
	topo *fubar.Topology // the workload's instance
	mat  *fubar.Matrix
	// epochs are the warm epochs the traced loop observed; nil runs a
	// probe replay on the instance.
	epochs []timedEpoch
	// daemon carries the daemon loop's create round trips and worker
	// waits; nil takes them from the daemon probe.
	daemon *daemonLayerObs
}

// daemonLayerObs is what the daemon loop contributes to the daemon
// layer's metrics.
type daemonLayerObs struct {
	create []float64 // POST round trips, ms
	waits  float64   // fubar_daemon_worker_waits_total growth
}

// probeLayers times the calls into every layer, from outside, on the
// workload's instance. Each probe's calls are recorded as spans.
func probeLayers(b *bench, in layerInput) error {
	model, err := fubar.NewModel(in.topo, in.mat)
	if err != nil {
		return err
	}
	lowest, _, err := fubar.RepairWarmStart(in.topo, in.mat, nil, fubar.Policy{}, 0)
	if err != nil {
		return err
	}
	if err := probeSearch(b, in, model, lowest); err != nil {
		return fmt.Errorf("search probe: %w", err)
	}
	sol, err := probeCore(b, in)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := probeCandidates(b, model); err != nil {
		return fmt.Errorf("candidate probe: %w", err)
	}
	if err := probeScenario(b, in); err != nil {
		return fmt.Errorf("scenario probe: %w", err)
	}
	if err := probeControlPlane(b, in, model, lowest, sol); err != nil {
		return fmt.Errorf("control-plane probe: %w", err)
	}
	if err := probeDaemon(b, in); err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	return nil
}

// timeEach runs f over n items and returns each call's duration in µs
// and the heap allocations per call. Spans are recorded after the
// loop, so recording allocates nothing inside the counted window.
func timeEach(b *bench, name string, n int, f func(i int)) ([]float64, float64) {
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	m0 := mallocs()
	for i := range n {
		starts[i] = time.Now()
		f(i)
		ends[i] = time.Now()
	}
	m1 := mallocs()
	tr := b.spans.newID()
	durs := make([]float64, n)
	for i := range n {
		b.spans.add(name, tr, 0, starts[i], ends[i])
		durs[i] = us(ends[i].Sub(starts[i]))
	}
	return durs, ratio(float64(m1-m0), float64(n))
}

// timeReps runs f probeReps times and returns the median wall time in
// ms, recording a span per call.
func timeReps(b *bench, name string, f func() error) (float64, error) {
	tr := b.spans.newID()
	var out []float64
	for range probeReps {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		b.spans.add(name, tr, 0, t0, t1)
		out = append(out, ms(t1.Sub(t0)))
	}
	return median(out), nil
}

// probeSearch times path search and evaluation on the lowest-delay
// placement: ShortestPath and Alternatives for every congested
// aggregate (up to maxRequests), the LowestDelay sweep over all
// aggregates, and one full Evaluate.
func probeSearch(b *bench, in layerInput, model *fubar.Model, lowest []fubar.Bundle) error {
	eval := model.NewEval()
	var res *fubar.ModelResult
	evalMs, _ := timeReps(b, "flowmodel.Evaluate", func() error {
		res = eval.Evaluate(lowest)
		return nil
	})
	b.set("flowmodel.evaluate_ms", evalMs, "ms", probeReps)

	reqs := congestedRequests(in.topo, in.mat, lowest, res)
	g := in.topo.Graph()
	durs, allocs := timeEach(b, "graph.ShortestPath", len(reqs), func(i int) {
		graph.ShortestPath(g, reqs[i].Src, reqs[i].Dst, graph.Constraints{ExcludeEdges: reqs[i].CongestedAll})
	})
	b.set("graph.shortest_path_us_p50", median(durs), "us", len(durs))
	b.set("graph.allocs_per_search", allocs, "allocs", len(durs))

	gen, err := pathgen.New(in.topo, pathgen.Policy{})
	if err != nil {
		return err
	}
	durs, allocs = timeEach(b, "pathgen.Alternatives", len(reqs), func(i int) { gen.Alternatives(reqs[i]) })
	b.set("pathgen.alternatives_us_p50", median(durs), "us", len(durs))
	b.set("pathgen.allocs_per_alternatives", allocs, "allocs", len(durs))

	// LowestDelay caches per generator, so each sweep starts from a
	// fresh one, as every replay epoch does.
	aggs := in.mat.Aggregates()
	sweep, err := timeReps(b, "pathgen.LowestDelay sweep", func() error {
		fresh, err := pathgen.New(in.topo, pathgen.Policy{})
		if err != nil {
			return err
		}
		for _, a := range aggs {
			fresh.LowestDelay(a.Src, a.Dst)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.set("pathgen.lowest_delay_sweep_ms", sweep, "ms", probeReps)
	return nil
}

// congestedRequests builds a pathgen request for every bundle that
// crosses a congested link, as the optimizer's step would: avoid every
// congested link, the ones this bundle uses, or its most
// oversubscribed one.
func congestedRequests(topo *fubar.Topology, mat *fubar.Matrix, bundles []fubar.Bundle, res *fubar.ModelResult) []pathgen.Request {
	var out []pathgen.Request
	for _, bd := range bundles {
		used := make([]bool, topo.NumLinks())
		most, worst := graph.EdgeID(-1), 0.0
		for _, e := range bd.Edges {
			if !res.IsCongested[e] {
				continue
			}
			used[e] = true
			if over := res.LinkDemand[e] / float64(topo.Capacity(e)); most < 0 || over > worst {
				most, worst = e, over
			}
		}
		if most < 0 {
			continue
		}
		a := mat.Aggregate(bd.Agg)
		out = append(out, pathgen.Request{Src: a.Src, Dst: a.Dst, CongestedAll: res.IsCongested, CongestedUsed: used, MostCongested: most})
		if len(out) == maxRequests {
			break
		}
	}
	return out
}

// probeCore runs three cold solves of the instance: one with the step
// observer (step gaps, allocations, GC share), then untraced at
// Workers=1 and Workers=nproc (parallel speedup). All three must be
// bit-identical. It returns the Workers=nproc solution.
func probeCore(b *bench, in layerInput) (*fubar.Solution, error) {
	obs := &stepMarks{on: true}
	st, err := fubar.NewSession(in.topo, in.mat, fubar.WithWorkers(b.workers), fubar.WithObserver(obs.mark))
	if err != nil {
		return nil, err
	}
	m0 := mallocs()
	cpu0, gc0 := cpuCounters()
	t0 := time.Now()
	traced, err := st.Optimize(b.ctx)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cpu1, gc1 := cpuCounters()
	m1 := mallocs()
	tr := b.spans.newID()
	run := b.spans.add("core.Run", tr, 0, t0, t1)
	var steps []float64
	prev, name := t0, "core.init"
	for _, at := range obs.at {
		b.spans.add(name, tr, run, prev, at)
		if name == "core.step" {
			steps = append(steps, ms(at.Sub(prev)))
		}
		prev, name = at, "core.step"
	}
	b.spans.add("core.finish", tr, run, prev, t1)

	wall := func(workers int) (*fubar.Solution, time.Duration, error) {
		s, err := fubar.NewSession(in.topo, in.mat, fubar.WithWorkers(workers))
		if err != nil {
			return nil, 0, err
		}
		t := time.Now()
		sol, err := s.Optimize(b.ctx)
		d := time.Since(t)
		b.spans.add(fmt.Sprintf("core.Run workers=%d", workers), b.spans.newID(), 0, t, t.Add(d))
		return sol, d, err
	}
	one, wallOne, err := wall(1)
	if err != nil {
		return nil, err
	}
	sol, wallN, err := wall(b.workers)
	if err != nil {
		return nil, err
	}
	b.op("workers=1 solve bit-identical to workers=nproc", sameSolution(sol, one))
	b.op("observed solve bit-identical to unobserved", sameSolution(sol, traced))
	b.op("probe solve allocation", checkBundles(in.topo, in.mat, sol.Bundles))

	passes := traced.Steps + traced.Escalations
	if traced.Stop == fubar.StopLocalOptimum {
		passes++ // the final pass that found no move
	}
	d := traced.Delta
	b.set("core.step_ms_p50", median(steps), "ms", len(steps))
	b.set("core.step_ms_p99", quantile(steps, 0.99), "ms", len(steps))
	b.set("core.candidates_per_step", ratio(float64(d.Calls), float64(max(traced.Steps, 1))), "count", 1)
	b.set("core.commit_ratio", ratio(float64(traced.Steps), float64(passes)), "ratio", 1)
	b.set("core.base_captures", float64(traced.Base.Captures), "count", 1)
	b.set("core.base_rebases", float64(traced.Base.Rebases), "count", 1)
	b.set("core.allocs_per_candidate", ratio(float64(m1-m0), float64(d.Calls)), "allocs", 1)
	b.set("core.gc_cpu_share", ratio(gc1-gc0, cpu1-cpu0), "ratio", 1)
	b.set("core.parallel_speedup", ratio(float64(wallOne), float64(wallN)), "x", 1)
	b.set("flowmodel.affected_share", ratio(float64(d.AffectedBundles), float64(d.ListBundles)), "ratio", 1)
	b.set("flowmodel.fallback_ratio", ratio(float64(d.Fallbacks), float64(d.Calls)), "ratio", 1)
	return sol, nil
}

// probeCandidates runs core.RunCandidateBench for candidateBenchSteps
// steps: every candidate evaluated by full water-filling (the oracle)
// and by the utility-only delta the optimizer scores with.
func probeCandidates(b *bench, model *fubar.Model) error {
	t0 := time.Now()
	cb, err := core.RunCandidateBench(model, core.Options{MaxSteps: candidateBenchSteps})
	if err != nil {
		return err
	}
	b.spans.add("core.RunCandidateBench", b.spans.newID(), 0, t0, time.Now())
	var mismatch error
	if !cb.Identical {
		mismatch = fmt.Errorf("full, delta and utility-only evaluations disagree")
	}
	b.op("candidate evaluations bit-identical", mismatch)
	b.set("flowmodel.delta_util_us_p50", float64(cb.MedianUtilNs())/1e3, "us", cb.Candidates())
	b.set("flowmodel.full_us_p50", float64(cb.MedianFullNs())/1e3, "us", cb.Candidates())
	return nil
}

// probeScenario derives the scenario layer's metrics from the traced
// loop's warm epochs, or from a short diurnal replay of the instance
// when the loop has none.
func probeScenario(b *bench, in layerInput) error {
	epochs := in.epochs
	if epochs == nil {
		s, err := fubar.NewSession(in.topo, in.mat, fubar.WithWorkers(b.workers))
		if err != nil {
			return err
		}
		sc, err := fubar.ScenarioByName(replayScenario, b.seed, probeEpochs)
		if err != nil {
			return err
		}
		tr := b.spans.newID()
		last := time.Now()
		for er, err := range s.Replay(b.ctx, sc) {
			if err != nil {
				return err
			}
			at := time.Now()
			ep := b.spans.add("scenario.epoch", tr, 0, last, at)
			b.spans.add("core.Run", tr, ep, maxTime(last, at.Add(-er.Elapsed)), at)
			if er.Epoch > 0 {
				epochs = append(epochs, timedEpoch{gap: at.Sub(last), rec: er})
			}
			last = at
		}
	}
	var opt, outside, steps, moved []float64
	idle := 0
	for _, e := range epochs {
		opt = append(opt, ms(e.rec.Elapsed))
		outside = append(outside, ms(e.gap-e.rec.Elapsed))
		steps = append(steps, float64(e.rec.Steps))
		moved = append(moved, float64(e.rec.RepairMovedFlows))
		if e.rec.Steps == 0 {
			idle++
		}
	}
	b.set("scenario.optimize_ms_p50", median(opt), "ms", len(opt))
	b.set("scenario.outside_optimize_ms_p50", median(outside), "ms", len(outside))
	b.set("scenario.steps_per_epoch", mean(steps), "count", len(steps))
	b.set("scenario.idle_epoch_share", ratio(float64(idle), float64(len(epochs))), "ratio", len(epochs))
	b.set("scenario.repair_moved_flows_per_epoch", mean(moved), "count", len(moved))
	return nil
}

// probeControlPlane times the control plane on the instance: starting
// the closed loop's control plane (3 replicas), and on a benchmark-
// built replica set, fabric and managed agents — installs alternating
// the lowest-delay and optimized allocations, stats collection, the
// simulator epoch, matrix estimation, one failover's resync — plus the
// make-before-break planner.
func probeControlPlane(b *bench, in layerInput, model *fubar.Model, lowest []fubar.Bundle, sol *fubar.Solution) error {
	start, err := timeReps(b, "scenario.NewControlPlaneCfg", func() error {
		cp, err := scenario.NewControlPlaneCfg(in.topo, in.mat, 0, nil, scenario.ControlPlaneConfig{Replicas: daemonReplicas})
		if err != nil {
			return err
		}
		return cp.Close()
	})
	if err != nil {
		return err
	}
	b.set("ctrlplane.start_ms", start, "ms", probeReps)

	sim, err := sdnsim.New(in.topo, in.mat, sdnsim.Config{})
	if err != nil {
		return err
	}
	fabric := ctrlplane.NewFabric(sim)
	discard := slog.New(slog.DiscardHandler)
	rs, err := ctrlplane.NewReplicaSet(daemonReplicas, ctrlplane.ControllerConfig{Name: "perfbench", RequestTimeout: 30 * time.Second, Logger: discard})
	if err != nil {
		return err
	}
	defer rs.Close()
	for node := range in.topo.NumNodes() {
		id := fubar.NodeID(node)
		agent, err := ctrlplane.NewManagedAgent(uint32(node), in.topo.NodeName(id), fabric.Datapath(id), rs, ctrlplane.AgentConfig{
			ReconnectBase: 2 * time.Millisecond, ReconnectMax: 250 * time.Millisecond, Logger: discard,
		})
		if err != nil {
			return err
		}
		defer agent.Close()
	}
	ctx, cancel := context.WithTimeout(b.ctx, 60*time.Second)
	defer cancel()
	if err := rs.WaitForSwitchesCtx(ctx, in.topo.NumNodes()); err != nil {
		return err
	}

	tr := b.spans.newID()
	var installs []float64
	var flowMods, rules int
	for i := range installReps {
		alloc := lowest
		if i%2 == 1 {
			alloc = sol.Bundles
		}
		t0 := time.Now()
		out, err := rs.InstallAllocationDiff(ctx, in.mat, alloc, uint64(i+1))
		if err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add("ctrlplane.InstallAllocationDiff", tr, 0, t0, t1)
		installs = append(installs, ms(t1.Sub(t0)))
		flowMods += out.FlowMods
		rules += out.Rules
	}
	b.set("ctrlplane.install_ms_p50", median(installs), "ms", len(installs))
	b.set("ctrlplane.rules_per_flowmod", ratio(float64(rules), float64(flowMods)), "count", flowMods)

	var runs, collects, estimates []float64
	for range statsReps {
		t0 := time.Now()
		if err := fabric.RunEpoch(); err != nil {
			return err
		}
		t1 := time.Now()
		replies, err := rs.CollectStats(ctx)
		if err != nil {
			return err
		}
		t2 := time.Now()
		est := measure.NewEstimator(measure.KeysFromMatrix(in.mat))
		if err := est.Observe(ctrlplane.MergeStats(in.topo, replies)); err != nil {
			return err
		}
		if _, err := est.Matrix(in.topo); err != nil {
			return err
		}
		t3 := time.Now()
		b.spans.add("sdnsim.RunEpoch", tr, 0, t0, t1)
		b.spans.add("ctrlplane.CollectStats", tr, 0, t1, t2)
		b.spans.add("measure.Estimate", tr, 0, t2, t3)
		runs = append(runs, ms(t1.Sub(t0)))
		collects = append(collects, ms(t2.Sub(t1)))
		estimates = append(estimates, ms(t3.Sub(t2)))
	}
	b.set("sdnsim.run_epoch_ms", median(runs), "ms", len(runs))
	b.set("ctrlplane.collect_stats_ms_p50", median(collects), "ms", len(collects))
	b.set("measure.estimate_ms", median(estimates), "ms", len(estimates))

	before := rs.Stats()
	if err := rs.Fail(0); err != nil {
		return err
	}
	if err := rs.WaitForSwitchesCtx(ctx, in.topo.NumNodes()); err != nil {
		return err
	}
	if err := rs.QuiesceResyncs(ctx); err != nil {
		return err
	}
	after := rs.Stats()
	b.set("ctrlplane.resync_flowmods_per_failover",
		ratio(float64(after.ResyncsAcked-before.ResyncsAcked), float64(after.Failovers-before.Failovers)), "count", 1)

	oldRates := model.NewEval().Evaluate(lowest).BundleRate
	old, next := reserved(lowest, oldRates), reserved(sol.Bundles, sol.Result.BundleRate)
	plan, _ := timeReps(b, "mpls.PlanTransition", func() error {
		mpls.PlanTransition(in.topo, old, next)
		return nil
	})
	b.set("mpls.plan_transition_ms", plan, "ms", probeReps)
	return nil
}

// reserved converts an allocation and its bundle rates into
// make-before-break planner input keyed by aggregate.
func reserved(bundles []fubar.Bundle, rates []float64) []mpls.ReservedPath {
	out := make([]mpls.ReservedPath, 0, len(bundles))
	for i, bd := range bundles {
		if len(bd.Edges) == 0 || bd.Flows <= 0 {
			continue
		}
		out = append(out, mpls.ReservedPath{Key: int64(bd.Agg), Edges: bd.Edges, Rate: rates[i]})
	}
	return out
}

// probeDaemon starts a one-client daemon and times tenant creates, a
// closed-loop stream against the same replay run in-process (stream
// overhead; the two must agree) and the JSONL encoder over the
// streamed epochs. It always serves the closedloop-daemon workload's
// first tenant (scale-xs, diurnal day), so on the other
// workloads, which never reach the daemon, it reads the same layer.
func probeDaemon(b *bench, in layerInput) error {
	env, err := startDaemon(b.ctx, 1)
	if err != nil {
		return err
	}
	defer env.stop()
	c := env.clients[0]
	waits0, err := env.scrape(b.ctx, c, "/metrics", "fubar_daemon_worker_waits_total")
	if err != nil {
		return err
	}
	tr := b.spans.newID()
	var creates []float64
	for i := range probeTenants {
		id := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		req := fubar.CreateTenantRequest{ID: id, Preset: daemonPreset, Seed: clientSeed(0), Workers: 1}
		if _, err := env.do(b.ctx, c, http.MethodPost, "/v1/tenants", req, http.StatusCreated); err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add("daemon.create", tr, 0, t0, t1)
		creates = append(creates, ms(t1.Sub(t0)))
	}

	sc, err := fubar.ScenarioByName(daemonScenario, b.seed, b.shape.daemonEpochs)
	if err != nil {
		return err
	}
	t0 := time.Now()
	lines, times, err := env.stream(b.ctx, c, "probe-0", sc.Seed, daemonScenario, sc.Epochs)
	if err != nil {
		return err
	}
	b.spans.add("daemon.stream", tr, 0, t0, time.Now())
	wire, err := env.scrape(b.ctx, c, "/v1/tenants/probe-0/metrics", "fubar_ctrlplane_wire_flowmods_total")
	if err != nil {
		return err
	}
	t1 := time.Now()
	ref, recs, local, err := closedLoopReference(b.ctx, daemonPreset, clientSeed(0), sc, 1)
	if err != nil {
		return err
	}
	b.spans.add("scenario.ReplayClosedLoop", tr, 0, t1, time.Now())
	b.op("probe stream matches in-process replay", checkStream(ref, lines, wire))
	var remote []float64
	for k := 1; k < len(times); k++ {
		remote = append(remote, ms(times[k].Sub(times[k-1])))
	}

	var seq iter.Seq2[fubar.EpochRecord, error] = func(yield func(fubar.EpochRecord, error) bool) {
		for _, er := range recs {
			if !yield(er, nil) {
				return
			}
		}
	}
	encoded := 0
	t2 := time.Now()
	for encoded < 20*len(recs) || time.Since(t2) < 20*time.Millisecond {
		n, err := fubar.WriteEpochsJSONL(io.Discard, seq)
		if err != nil {
			return err
		}
		encoded += n
	}
	encodeUs := us(time.Since(t2)) / float64(encoded)
	b.spans.add("daemon.WriteEpochsJSONL", tr, 0, t2, time.Now())

	waits1, err := env.scrape(b.ctx, c, "/metrics", "fubar_daemon_worker_waits_total")
	if err != nil {
		return err
	}
	waits := waits1 - waits0
	if in.daemon != nil {
		creates, waits = in.daemon.create, in.daemon.waits
	}
	b.set("daemon.create_ms_p50", median(creates), "ms", len(creates))
	b.set("daemon.worker_waits", waits, "count", 1)
	b.set("daemon.encode_us_per_epoch", encodeUs, "us", encoded)
	b.set("daemon.stream_overhead_ms_p50", median(remote)-median(local), "ms", len(remote))
	return nil
}
