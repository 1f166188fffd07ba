// Command fubar-bench regenerates every table and figure of the FUBAR
// paper's evaluation (§3) on the HE-31 substitute topology.
//
// Usage:
//
//	fubar-bench -exp all            # everything (several minutes)
//	fubar-bench -exp fig3           # one experiment
//	fubar-bench -exp fig7 -runs 100 # repeatability with a custom run count
//
// Each experiment prints the paper-figure analogue as ASCII tables/charts
// plus the headline numbers recorded in EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/core"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/netsim"
	"fubar/internal/pathgen"
	"fubar/internal/report"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// benchCtx is the run's root context, cancelled by SIGINT/SIGTERM so
// interrupted experiments stop at the next candidate batch and the
// binary exits cleanly instead of dying mid-epoch.
var benchCtx = context.Background()

// benchTel is the live telemetry registry behind -listen, nil without
// the flag.
var benchTel *telemetry.Telemetry

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1|fig3|fig4|fig5|fig6|fig7|queues|runtime|ablation|anneal|validate|dqueues|mpls|failover|all, or scenario/evalbench/ctrlloop/scale/obs/soak (explicit only; write -scenario-out/-eval-out/-ctrlloop-out/-scale-out/-obs-out/-soak-out)")
		seed     = flag.Int64("seed", 1, "base random seed")
		runs     = flag.Int("runs", 100, "number of runs for fig7")
		deadline = flag.Duration("deadline", 10*time.Minute, "per-run optimization deadline")
		csv      = flag.Bool("csv", false, "emit CSV after each chart")
		workers  = flag.Int("workers", 0, "parallel candidate evaluators per step (0 = GOMAXPROCS)")
		scenName = flag.String("scenario", "diurnal", "canned scenario for -exp scenario/ctrlloop: "+strings.Join(scenario.Names(), "|"))
		epochs   = flag.Int("epochs", 20, "scenario replay epoch count")
		scenOut  = flag.String("scenario-out", "BENCH_scenario.json", "output file for the scenario replay record")
		evalOut  = flag.String("eval-out", "BENCH_eval.json", "output file for the evalbench record")
		evalInst = flag.String("eval-instance", "he", "evalbench instance: he (thinned HE-31) or ring (small CI smoke)")
		ctrlOut  = flag.String("ctrlloop-out", "BENCH_ctrlloop.json", "output file for the ctrlloop record")
		budget   = flag.Duration("budget", 250*time.Millisecond, "ctrlloop per-epoch optimization deadline for the budgeted run")
		scaleSet = flag.String("scale-presets", "scale-xs,scale-s,scale-m", "comma-separated scale presets for -exp scale ("+strings.Join(scenario.ScalePresetNames(), "|")+")")
		scaleWk  = flag.String("scale-workers", "1,2,4", "comma-separated worker counts for -exp scale")
		scaleN   = flag.Int("scale-steps", 30, "per-run committed-move cap for -exp scale")
		scaleOut = flag.String("scale-out", "BENCH_scale.json", "output file for the scale record")
		obsOut   = flag.String("obs-out", "BENCH_obs.json", "output file for the obs (telemetry overhead) record")
		soakN    = flag.Int("soak-epochs", 1_000_000, "plain-replay epoch count for -exp soak (the closed-loop leg runs a tenth of it)")
		soakP    = flag.Int("soak-period", 25, "soak timeline event period in epochs")
		soakOut  = flag.String("soak-out", "BENCH_soak.json", "output file for the soak record")
		soakBase = flag.String("soak-baseline", "", "baseline soak record to diff against: the run fails on any deterministic-envelope regression (trajectory divergence, heap-bound or wire-ledger flags)")
		listen   = flag.String("listen", "", "serve live telemetry on this address: Prometheus /metrics, /debug/pprof/, JSONL /trace")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	benchCtx = ctx

	opts := core.Options{Deadline: *deadline, Workers: *workers}
	if *listen != "" {
		benchTel = telemetry.New()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "listen:", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: telemetry.Handler(benchTel)}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (metrics, trace, debug/pprof)\n", ln.Addr())
		go srv.Serve(ln)
		defer srv.Close()
		// Experiments driven by the shared option set report live; the
		// explicit-only benches build their own options, except the obs
		// bench's scrape phase, which adopts this registry so the
		// -listen endpoint shows the run it verifies.
		opts.Telemetry = benchTel
	}
	run := func(name string, f func() error) {
		fmt.Printf("\n================ %s ================\n", name)
		start := time.Now()
		err := f()
		// A cancelled context is terminal whatever the experiment
		// returned: optimizer-level cancellation surfaces as truncated
		// (StopCancelled) solutions with a nil error, and any figures or
		// records derived from them are garbage — never continue to the
		// next experiment or exit 0.
		if benchCtx.Err() != nil || errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", name)
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", name, time.Since(start).Truncate(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig1") {
		run("fig1+2: utility function shapes", func() error { return fig12() })
	}
	if want("fig3") {
		run("fig3: provisioned run (100 Mbps)", func() error {
			return timeSeriesExperiment(experiment.Provisioned(*seed), opts, *csv)
		})
	}
	if want("fig4") {
		run("fig4: underprovisioned run (75 Mbps)", func() error {
			return timeSeriesExperiment(experiment.Underprovisioned(*seed), opts, *csv)
		})
	}
	if want("fig5") {
		run("fig5: underprovisioned, large flows prioritized", func() error {
			return timeSeriesExperiment(experiment.Prioritized(*seed), opts, *csv)
		})
	}
	if want("fig6") {
		run("fig6: delay CDF, relaxed delay", func() error { return fig6(*seed, opts) })
	}
	if want("fig7") {
		run("fig7: repeatability CDF", func() error { return fig7(*seed, *runs, opts) })
	}
	if want("queues") {
		run("queues: queueing before/after (§3 avoiding congestion)", func() error { return queues(*seed, opts) })
	}
	if want("runtime") {
		run("runtime: running-time table", func() error { return runtimeTable(*seed, opts) })
	}
	if want("ablation") {
		run("ablation: path trio and escalation", func() error { return ablation(*seed, opts) })
	}
	if want("anneal") {
		run("anneal: FUBAR vs naive simulated annealing (§2.5)", func() error { return annealCompare(*seed) })
	}
	if want("validate") {
		run("validate: analytic model vs dynamic AIMD simulation (§2.3)", func() error { return validate(*seed) })
	}
	if want("dqueues") {
		run("dqueues: simulated drop-tail queues, SP vs FUBAR (§3)", func() error { return dynamicQueues(*seed) })
	}
	if want("mpls") {
		run("mpls: allocation as reserved MPLS-TE tunnels (§5)", func() error { return mplsSync(*seed) })
	}
	if want("failover") {
		run("failover: link failure and warm-start recovery", func() error { return failover(*seed) })
	}
	// The record benches are explicit-only (not part of "all"): they
	// write files in the working directory, which a figure-reproduction
	// run never asked for.
	if *exp == "scenario" {
		run("scenario: time-varying replay, warm vs cold re-optimization", func() error {
			return scenarioBench(*scenName, *seed, *epochs, *scenOut)
		})
	}
	if *exp == "evalbench" {
		run("evalbench: incremental vs full candidate evaluation", func() error {
			return evalBench(*evalInst, *seed, *evalOut)
		})
	}
	if *exp == "ctrlloop" {
		run("ctrlloop: closed-loop scenario replay over the control plane", func() error {
			return ctrlloopBench(*scenName, *seed, *epochs, *budget, *ctrlOut)
		})
	}
	if *exp == "scale" {
		run("scale: step-pipeline scaling on large Waxman instances", func() error {
			return scaleBench(*scaleSet, *scaleWk, *seed, *scaleN, *scaleOut)
		})
	}
	if *exp == "obs" {
		run("obs: telemetry overhead and live-scrape verification", func() error {
			return obsBench(*seed, max(1, *workers), *scaleN, *obsOut)
		})
	}
	if *exp == "soak" {
		run("soak: million-epoch streaming replay, O(1) memory", func() error {
			return soakBench(*seed, *soakN, *soakP, *soakOut, *soakBase)
		})
	}
}

// ctrlloopBenchRecord is the JSON record `-exp ctrlloop` writes: the
// closed-loop replay's counted wire FlowMods warm vs cold, the
// worker-count determinism verdict, make-before-break headroom, and the
// deadline-miss rate of a budgeted run.
type ctrlloopBenchRecord struct {
	Benchmark        string         `json:"benchmark"`
	Scenario         string         `json:"scenario"`
	Seed             int64          `json:"seed"`
	Topology         string         `json:"topology"`
	Aggregates       int            `json:"aggregates"`
	Epochs           int            `json:"epochs"`
	GOMAXPROCS       int            `json:"gomaxprocs"`
	Deterministic    bool           `json:"deterministic"`
	WarmWireFlowMods int            `json:"warm_wire_flow_mods"`
	ColdWireFlowMods int            `json:"cold_wire_flow_mods"`
	WireRatio        float64        `json:"cold_over_warm_wire_flow_mods"`
	WarmEstFlowMods  int            `json:"warm_estimated_flow_mods"`
	ColdEstFlowMods  int            `json:"cold_estimated_flow_mods"`
	WarmTrueUtility  float64        `json:"warm_mean_true_utility"`
	ColdTrueUtility  float64        `json:"cold_mean_true_utility"`
	MinMBBHeadroom   float64        `json:"min_mbb_headroom"`
	BudgetNs         int64          `json:"budget_ns"`
	DeadlineMissRate float64        `json:"deadline_miss_rate"`
	BudgetedTrueU    float64        `json:"budgeted_mean_true_utility"`
	HA               *haBenchRecord `json:"ha"`
	// Trajectories holds one downsampled closed-loop utility/churn/miss
	// trajectory per canned scenario family (every scenario.Names()
	// entry), warm-started at Workers=1 — the per-family soak fingerprint.
	Trajectories []scenario.Trajectory `json:"trajectories"`
	Warm         *scenario.Result      `json:"warm"`
}

// haBenchRecord is the HA family of the ctrlloop record: the canned
// controller-kill storm replayed over a 3-replica control plane
// (failovers bite: orphaned switches re-home and get their rule tables
// resynced) versus the classic single controller (every kill is a
// deterministic no-op) — same scenario, same seed.
type haBenchRecord struct {
	Scenario         string  `json:"scenario"`
	Epochs           int     `json:"epochs"`
	Replicas         int     `json:"replicas"`
	Deterministic    bool    `json:"deterministic"`
	Failovers        int     `json:"failovers"`
	ResyncFlowMods   int     `json:"resync_flow_mods"`
	WireFlowMods     int     `json:"wire_flow_mods"`
	MeanTrueUtility  float64 `json:"mean_true_utility"`
	SoloWireFlowMods int     `json:"solo_wire_flow_mods"`
	SoloTrueUtility  float64 `json:"solo_mean_true_utility"`
	DeadlineMissRate float64 `json:"deadline_miss_rate"`
}

func totalFailovers(r *scenario.Result) (failovers, resyncs int) {
	for _, e := range r.Epochs {
		failovers += e.Failovers
		resyncs += e.ResyncFlowMods
	}
	return
}

func meanTrueUtility(r *scenario.Result) float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.Epochs {
		s += e.TrueUtility
	}
	return s / float64(len(r.Epochs))
}

// ctrlloopBench replays a canned scenario on the thinned HE-31 instance
// with the control plane in the loop, four ways: warm-started at one
// and at four candidate workers with no budget (checking the epoch
// tables, counted FlowMods and install sequences are identical),
// cold-started (every epoch optimizes from scratch — the FlowMod
// comparison the warm start is buying), and warm-started under a
// per-epoch optimization deadline (recording the miss rate and the
// utility cost of publishing best-so-far solutions; wall-clock, so this
// run is machine-dependent by design).
func ctrlloopBench(name string, seed int64, epochs int, budget time.Duration, outPath string) error {
	topo, mat, err := scenario.HEBenchInstance(seed + 4)
	if err != nil {
		return err
	}
	// Declare two shared-risk conduits so `-scenario srlg` exercises
	// correlated failures on this instance too.
	topoS, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "conduit-0", Links: []topology.LinkID{0, 2}},
		{Name: "conduit-1", Links: []topology.LinkID{4, 6}},
	})
	if err != nil {
		return err
	}
	matS, err := traffic.NewMatrix(topoS, mat.Aggregates())
	if err != nil {
		return err
	}
	topo, mat = topoS, matS
	sc, err := scenario.ByName(name, seed, epochs)
	if err != nil {
		return err
	}
	warm1, err := scenario.RunClosedLoop(benchCtx, topo, mat, sc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 1}})
	if err != nil {
		return err
	}
	warm4, err := scenario.RunClosedLoop(benchCtx, topo, mat, sc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 4}})
	if err != nil {
		return err
	}
	det := warm1.Equivalent(warm4)
	cold, err := scenario.RunClosedLoop(benchCtx, topo, mat, sc, scenario.ClosedLoopOptions{ColdStart: true, Core: core.Options{Workers: 1}})
	if err != nil {
		return err
	}
	budgeted, err := scenario.RunClosedLoop(benchCtx, topo, mat, sc, scenario.ClosedLoopOptions{
		Core: core.Options{Workers: 1}, EpochBudget: budget,
	})
	if err != nil {
		return err
	}

	// HA family: the controller-kill storm over a 3-replica control
	// plane (kills bite, survivors resync the orphans' rule tables)
	// versus the classic single controller (kills are deterministic
	// no-ops) — same scenario, same seed.
	haEpochs := 8
	if epochs < haEpochs {
		haEpochs = epochs
	}
	haSc := scenario.ControllerKillStorm(seed, haEpochs, 3)
	ha1, err := scenario.RunClosedLoop(benchCtx, topo, mat, haSc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 1}, Replicas: 3})
	if err != nil {
		return err
	}
	ha4, err := scenario.RunClosedLoop(benchCtx, topo, mat, haSc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 4}, Replicas: 3})
	if err != nil {
		return err
	}
	haDet := ha1.Equivalent(ha4)
	haSolo, err := scenario.RunClosedLoop(benchCtx, topo, mat, haSc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 1}})
	if err != nil {
		return err
	}

	// Per-family trajectories: every canned generator — composites
	// included — replayed closed loop and downsampled to a fixed point
	// budget. They run on the soak ring (the scenario-matrix instance),
	// which is provisioned to survive even the crisis composite's
	// simultaneous SRLG outage and maintenance window; the thinned HE-31
	// instance can be partitioned by them.
	trajTopo, trajMat, err := soakInstance(seed)
	if err != nil {
		return err
	}
	trajPoints := min(epochs, 10)
	var trajectories []scenario.Trajectory
	for _, fam := range scenario.Names() {
		fsc, err := scenario.ByName(fam, seed, epochs)
		if err != nil {
			return err
		}
		fres, err := scenario.RunClosedLoop(benchCtx, trajTopo, trajMat, fsc, scenario.ClosedLoopOptions{Core: core.Options{Workers: 1}})
		if err != nil {
			return err
		}
		trajectories = append(trajectories, scenario.SampleTrajectory(fam, fres, trajPoints))
	}

	if err := warm1.Table().Render(os.Stdout); err != nil {
		return err
	}
	rec := ctrlloopBenchRecord{
		Benchmark:        "closed-loop scenario replay: counted wire FlowMods, warm vs cold, deadline budgeting",
		Scenario:         sc.Name,
		Seed:             seed,
		Topology:         topo.Summary(),
		Aggregates:       mat.NumAggregates(),
		Epochs:           epochs,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Deterministic:    det,
		WarmWireFlowMods: warm1.TotalWireFlowMods(),
		ColdWireFlowMods: cold.TotalWireFlowMods(),
		WireRatio:        float64(cold.TotalWireFlowMods()) / float64(max(1, warm1.TotalWireFlowMods())),
		WarmEstFlowMods:  warm1.TotalFlowMods(),
		ColdEstFlowMods:  cold.TotalFlowMods(),
		WarmTrueUtility:  meanTrueUtility(warm1),
		ColdTrueUtility:  meanTrueUtility(cold),
		MinMBBHeadroom:   warm1.MinMBBHeadroom(),
		BudgetNs:         budget.Nanoseconds(),
		DeadlineMissRate: budgeted.DeadlineMissRate(),
		BudgetedTrueU:    meanTrueUtility(budgeted),
		Trajectories:     trajectories,
		Warm:             warm1,
	}
	haFailovers, haResyncs := totalFailovers(ha1)
	rec.HA = &haBenchRecord{
		Scenario:         haSc.Name,
		Epochs:           haEpochs,
		Replicas:         3,
		Deterministic:    haDet,
		Failovers:        haFailovers,
		ResyncFlowMods:   haResyncs,
		WireFlowMods:     ha1.TotalWireFlowMods(),
		MeanTrueUtility:  meanTrueUtility(ha1),
		SoloWireFlowMods: haSolo.TotalWireFlowMods(),
		SoloTrueUtility:  meanTrueUtility(haSolo),
		DeadlineMissRate: ha1.DeadlineMissRate(),
	}
	t := report.NewTable("closed loop over "+sc.Name, "metric", "warm", "cold")
	t.AddRow("wire FlowMods (counted)", rec.WarmWireFlowMods, rec.ColdWireFlowMods)
	t.AddRow("estimated flow mods (diff)", rec.WarmEstFlowMods, rec.ColdEstFlowMods)
	t.AddRow("mean true utility", fmt.Sprintf("%.4f", rec.WarmTrueUtility), fmt.Sprintf("%.4f", rec.ColdTrueUtility))
	t.AddRow("optimizer steps", warm1.TotalSteps(), cold.TotalSteps())
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	b := report.NewTable("deadline budgeting ("+budget.String()+"/epoch)", "metric", "value")
	b.AddRow("deadline-miss rate", fmt.Sprintf("%.0f%%", 100*rec.DeadlineMissRate))
	b.AddRow("mean true utility (budgeted)", fmt.Sprintf("%.4f", rec.BudgetedTrueU))
	b.AddRow("min MBB headroom (unbudgeted warm)", fmt.Sprintf("%+.3f", rec.MinMBBHeadroom))
	if err := b.Render(os.Stdout); err != nil {
		return err
	}
	h := report.NewTable("HA: "+haSc.Name, "metric", "3 replicas", "1 replica")
	h.AddRow("failovers", rec.HA.Failovers, 0)
	h.AddRow("resync FlowMods (verified handoffs)", rec.HA.ResyncFlowMods, 0)
	h.AddRow("wire FlowMods (counted)", rec.HA.WireFlowMods, rec.HA.SoloWireFlowMods)
	h.AddRow("mean true utility", fmt.Sprintf("%.4f", rec.HA.MeanTrueUtility), fmt.Sprintf("%.4f", rec.HA.SoloTrueUtility))
	if err := h.Render(os.Stdout); err != nil {
		return err
	}
	f := report.NewTable("per-family trajectories (closed loop, warm)", "family", "final utility", "wiremods", "steps", "miss rate")
	for _, tr := range trajectories {
		var wiremods, steps, misses int
		for _, p := range tr.Points {
			wiremods += p.WireFlowMods
			steps += p.Steps
			misses += p.Misses
		}
		finalU := 0.0
		if n := len(tr.Points); n > 0 {
			finalU = tr.Points[n-1].Utility
		}
		f.AddRow(tr.Family, fmt.Sprintf("%.4f", finalU), wiremods, steps,
			fmt.Sprintf("%.0f%%", 100*float64(misses)/float64(max(1, tr.Epochs))))
	}
	if err := f.Render(os.Stdout); err != nil {
		return err
	}
	detNote := "identical tables + install sequences at 1 and 4 workers"
	if !det {
		detNote = "TABLES DIVERGED between 1 and 4 workers"
	}
	fmt.Printf("trueU/epoch: %s  (cold pushes %.1fx the wire FlowMods; %s)\n",
		warm1.UtilitySparkline(), rec.WireRatio, detNote)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("ctrlloop record written to %s\n", outPath)
	if !det {
		return fmt.Errorf("ctrlloop: closed-loop replays diverged between Workers=1 and Workers=4")
	}
	if !haDet {
		return fmt.Errorf("ctrlloop: HA kill-storm replays diverged between Workers=1 and Workers=4")
	}
	if haFailovers == 0 {
		return fmt.Errorf("ctrlloop: HA kill storm caused no failovers on a 3-replica plane")
	}
	return nil
}

// evalBenchRecord is the JSON record `-exp evalbench` writes: paired
// per-candidate timing medians for the full, incremental (full-Result
// delta) and utility-only delta evaluation strategies over one real
// optimization run, the differential verdict, and the end-to-end on/off
// comparison. The delta counters are split per mode (full-Result vs
// utility-only) so each mode's fallback and expansion behavior — and
// therefore the utility-only savings — is attributable.
type evalBenchRecord struct {
	Benchmark         string  `json:"benchmark"`
	Instance          string  `json:"instance"`
	Topology          string  `json:"topology"`
	Aggregates        int     `json:"aggregates"`
	DenseBundles      int     `json:"dense_bundles"`
	Seed              int64   `json:"seed"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`
	Workers           int     `json:"workers"`
	Candidates        int     `json:"candidates"`
	Identical         bool    `json:"identical"`
	MedianFullNs      int64   `json:"median_full_ns"`
	MedianDeltaNs     int64   `json:"median_delta_ns"`
	MedianUtilNs      int64   `json:"median_util_ns"`
	MedianSpeedup     float64 `json:"median_speedup"`
	MeanSpeedup       float64 `json:"mean_speedup"`
	MedianUtilSpeedup float64 `json:"median_util_speedup"`
	DeltaCalls        int64   `json:"delta_calls"`
	DeltaFallbacks    int64   `json:"delta_fallbacks"`
	DeltaExpansions   int64   `json:"delta_expansions"`
	// Per-mode split: delta_* above are totals over both incremental
	// modes; the full_* / util_* pairs below separate the full-Result
	// calls from the utility-only scoring calls.
	FullModeCalls      int64   `json:"full_mode_calls"`
	FullModeFallbacks  int64   `json:"full_mode_fallbacks"`
	FullModeExpansions int64   `json:"full_mode_expansions"`
	UtilModeCalls      int64   `json:"util_mode_calls"`
	UtilModeFallbacks  int64   `json:"util_mode_fallbacks"`
	UtilModeExpansions int64   `json:"util_mode_expansions"`
	AffectedFrac       float64 `json:"affected_frac"`
	RunFullNs          int64   `json:"run_full_best_ns"`
	RunDeltaNs         int64   `json:"run_delta_best_ns"`
	RunSpeedup         float64 `json:"run_speedup"`
	// BaseStats records how the delta run obtained each step's base: the
	// persistent base is patched on commit and remapped across step
	// layouts, so captures stay near one per run.
	BaseStats     core.BaseStats `json:"base_stats"`
	Steps         int            `json:"steps"`
	Utility       float64        `json:"utility"`
	Deterministic bool           `json:"deterministic"`
}

// evalBench times every candidate of one real optimization both ways
// (core.RunCandidateBench — the differential doubles as a correctness
// assertion), then measures the optimizer end to end with DeltaEval on
// vs off at Workers=1, and writes the record to outPath. The speedup is
// single-core algorithmic, so it is meaningful even on a 1-CPU host.
func evalBench(instance string, seed int64, outPath string) error {
	var topo *topology.Topology
	var mat *traffic.Matrix
	var err error
	switch instance {
	case "he":
		topo, mat, err = scenario.HEBenchInstance(seed + 4)
	case "ring":
		topo, mat, err = benchInstance(seed)
	default:
		err = fmt.Errorf("evalbench: unknown instance %q (want he or ring)", instance)
	}
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	cb, err := core.RunCandidateBench(model, core.Options{})
	if err != nil {
		return err
	}
	if !cb.Identical {
		return fmt.Errorf("evalbench: delta utilities diverged from full evaluations")
	}

	// End to end at Workers=1, best of 3, two strategies: full
	// per-candidate evaluations and incremental against the persistent
	// base (patched on commit, remapped across layouts).
	const rounds = 3
	measure := func(opts core.Options) (time.Duration, *core.Solution, error) {
		var best time.Duration
		var sol *core.Solution
		opts.Workers = 1
		for i := 0; i < rounds; i++ {
			m, err := flowmodel.New(topo, mat)
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			s, err := core.Run(benchCtx, m, opts)
			if err != nil {
				return 0, nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
			sol = s
		}
		return best, sol, nil
	}
	deltaT, deltaSol, err := measure(core.Options{DeltaEval: core.DeltaAuto})
	if err != nil {
		return err
	}
	fullT, fullSol, err := measure(core.Options{DeltaEval: core.DeltaOff})
	if err != nil {
		return err
	}
	det := deltaSol.Steps == fullSol.Steps && deltaSol.Utility == fullSol.Utility &&
		reflect.DeepEqual(deltaSol.Bundles, fullSol.Bundles)

	st := cb.Delta
	affected := 0.0
	if st.ListBundles > 0 {
		affected = float64(st.AffectedBundles) / float64(st.ListBundles)
	}
	dense := 0
	// ListBundles accumulates only for non-fallback calls; divide by the
	// same population.
	if n := st.Calls - st.Fallbacks; n > 0 {
		dense = int(st.ListBundles / n)
	}
	rec := evalBenchRecord{
		Benchmark:          "flowmodel: incremental (delta) vs full candidate evaluation",
		Instance:           instance,
		Topology:           topo.Summary(),
		Aggregates:         mat.NumAggregates(),
		DenseBundles:       dense,
		Seed:               seed,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Workers:            cb.Workers,
		Candidates:         cb.Candidates(),
		Identical:          cb.Identical,
		MedianFullNs:       cb.MedianFullNs(),
		MedianDeltaNs:      cb.MedianDeltaNs(),
		MedianUtilNs:       cb.MedianUtilNs(),
		MedianSpeedup:      cb.MedianSpeedup(),
		MeanSpeedup:        cb.MeanSpeedup(),
		MedianUtilSpeedup:  cb.MedianUtilSpeedup(),
		DeltaCalls:         st.Calls,
		DeltaFallbacks:     st.Fallbacks,
		DeltaExpansions:    st.Expansions,
		FullModeCalls:      st.Calls - st.UtilityOnlyCalls,
		FullModeFallbacks:  st.Fallbacks - st.UtilityOnlyFallbacks,
		FullModeExpansions: st.Expansions - st.UtilityOnlyExpansions,
		UtilModeCalls:      st.UtilityOnlyCalls,
		UtilModeFallbacks:  st.UtilityOnlyFallbacks,
		UtilModeExpansions: st.UtilityOnlyExpansions,
		AffectedFrac:       affected,
		RunFullNs:          fullT.Nanoseconds(),
		RunDeltaNs:         deltaT.Nanoseconds(),
		RunSpeedup:         float64(fullT) / float64(deltaT),
		BaseStats:          deltaSol.Base,
		Steps:              deltaSol.Steps,
		Utility:            deltaSol.Utility,
		Deterministic:      det,
	}
	t := report.NewTable("incremental candidate evaluation", "metric", "value")
	t.AddRow("instance", fmt.Sprintf("%s (%d aggregates, %d dense bundles)", instance, rec.Aggregates, rec.DenseBundles))
	t.AddRow("candidates timed", rec.Candidates)
	// Table duration cells truncate to milliseconds; these are µs-scale.
	t.AddRow("median full eval", time.Duration(rec.MedianFullNs).String())
	t.AddRow("median delta eval", time.Duration(rec.MedianDeltaNs).String())
	t.AddRow("median utility-only eval", time.Duration(rec.MedianUtilNs).String())
	t.AddRow("median speedup", fmt.Sprintf("%.2fx", rec.MedianSpeedup))
	t.AddRow("mean speedup", fmt.Sprintf("%.2fx", rec.MeanSpeedup))
	t.AddRow("median speedup (utility-only)", fmt.Sprintf("%.2fx", rec.MedianUtilSpeedup))
	t.AddRow("affected fraction", fmt.Sprintf("%.3f", rec.AffectedFrac))
	t.AddRow("fallbacks / expansions (full-result mode)",
		fmt.Sprintf("%d / %d of %d", rec.FullModeFallbacks, rec.FullModeExpansions, rec.FullModeCalls))
	t.AddRow("fallbacks / expansions (utility-only mode)",
		fmt.Sprintf("%d / %d of %d", rec.UtilModeFallbacks, rec.UtilModeExpansions, rec.UtilModeCalls))
	t.AddRow("run (persistent base, Workers=1)", deltaT.Truncate(time.Microsecond))
	t.AddRow("run (delta off, Workers=1)", fullT.Truncate(time.Microsecond))
	t.AddRow("run speedup (vs delta off)", fmt.Sprintf("%.2fx", rec.RunSpeedup))
	t.AddRow("base captures/remaps/skips/rebases", fmt.Sprintf("%d / %d / %d / %d",
		rec.BaseStats.Captures, rec.BaseStats.Remaps, rec.BaseStats.Skips, rec.BaseStats.Rebases))
	t.AddRow("bit-identical candidates", rec.Identical)
	t.AddRow("identical solutions on/off", det)
	t.AddRow("GOMAXPROCS", rec.GOMAXPROCS)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("evalbench record written to %s\n", outPath)
	if !det {
		return fmt.Errorf("evalbench: persistent-base and DeltaOff runs diverged (steps %d / %d)",
			deltaSol.Steps, fullSol.Steps)
	}
	return nil
}

// scenarioBenchRecord is the JSON time-series record `-exp scenario`
// writes: the scenario's full warm-start epoch table plus the warm/cold
// totals and the worker-count determinism check.
type scenarioBenchRecord struct {
	Benchmark       string           `json:"benchmark"`
	Scenario        string           `json:"scenario"`
	Seed            int64            `json:"seed"`
	Topology        string           `json:"topology"`
	Aggregates      int              `json:"aggregates"`
	Epochs          int              `json:"epochs"`
	GOMAXPROCS      int              `json:"gomaxprocs"`
	Deterministic   bool             `json:"deterministic"`
	WarmTotalSteps  int              `json:"warm_total_steps"`
	ColdTotalSteps  int              `json:"cold_total_steps"`
	StepRatio       float64          `json:"cold_over_warm_steps"`
	WarmMeanUtility float64          `json:"warm_mean_utility"`
	ColdMeanUtility float64          `json:"cold_mean_utility"`
	WarmElapsedNs   int64            `json:"warm_elapsed_ns"`
	ColdElapsedNs   int64            `json:"cold_elapsed_ns"`
	Warm            *scenario.Result `json:"warm"`
}

// scenarioBench replays a canned scenario on the Hurricane Electric
// instance three ways — warm-started at one and at four candidate
// workers (checking the epoch tables are identical) and cold-started —
// prints the warm epoch table and the comparison, and writes the
// time-series record to outPath.
func scenarioBench(name string, seed int64, epochs int, outPath string) error {
	topo, mat, err := scenario.HEBenchInstance(seed + 4)
	if err != nil {
		return err
	}
	sc, err := scenario.ByName(name, seed, epochs)
	if err != nil {
		return err
	}
	measure := func(opts scenario.Options) (*scenario.Result, time.Duration, error) {
		start := time.Now()
		r, err := scenario.Run(benchCtx, topo, mat, sc, opts)
		return r, time.Since(start), err
	}
	warm1, warmT, err := measure(scenario.Options{Core: core.Options{Workers: 1}})
	if err != nil {
		return err
	}
	warm4, _, err := measure(scenario.Options{Core: core.Options{Workers: 4}})
	if err != nil {
		return err
	}
	cold, coldT, err := measure(scenario.Options{ColdStart: true, Core: core.Options{Workers: 1}})
	if err != nil {
		return err
	}
	det := warm1.Equivalent(warm4)
	if err := warm1.Table().Render(os.Stdout); err != nil {
		return err
	}
	rec := scenarioBenchRecord{
		Benchmark:       "scenario replay: warm-started vs cold re-optimization",
		Scenario:        sc.Name,
		Seed:            seed,
		Topology:        topo.Summary(),
		Aggregates:      mat.NumAggregates(),
		Epochs:          epochs,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Deterministic:   det,
		WarmTotalSteps:  warm1.TotalSteps(),
		ColdTotalSteps:  cold.TotalSteps(),
		StepRatio:       float64(cold.TotalSteps()) / float64(max(1, warm1.TotalSteps())),
		WarmMeanUtility: warm1.MeanUtility(),
		ColdMeanUtility: cold.MeanUtility(),
		WarmElapsedNs:   warmT.Nanoseconds(),
		ColdElapsedNs:   coldT.Nanoseconds(),
		Warm:            warm1,
	}
	t := report.NewTable("warm vs cold over "+sc.Name, "metric", "warm", "cold")
	t.AddRow("total optimizer steps", rec.WarmTotalSteps, rec.ColdTotalSteps)
	t.AddRow("mean utility", fmt.Sprintf("%.4f", rec.WarmMeanUtility), fmt.Sprintf("%.4f", rec.ColdMeanUtility))
	t.AddRow("total flow mods", warm1.TotalFlowMods(), cold.TotalFlowMods())
	t.AddRow("elapsed", warmT.Truncate(time.Millisecond), coldT.Truncate(time.Millisecond))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	detNote := "identical tables at 1 and 4 workers"
	if !det {
		detNote = "TABLES DIVERGED between 1 and 4 workers"
	}
	fmt.Printf("utility/epoch: %s  (cold starts commit %.1fx the steps; %s)\n",
		warm1.UtilitySparkline(), rec.StepRatio, detNote)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scenario record written to %s\n", outPath)
	// The record is on disk either way; a divergence still fails the run
	// (and the CI smoke step) loudly.
	if !det {
		return fmt.Errorf("scenario: epoch tables diverged between Workers=1 and Workers=4")
	}
	return nil
}

// failover runs a link-failure episode: optimize, kill the hottest
// link, measure the stale allocation, re-optimize around the failure
// warm-started from the installed state.
func failover(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	res, err := experiment.Failover(benchCtx, topo, mat, core.Options{})
	if err != nil {
		return err
	}
	t := report.NewTable("link failure episode", "state", "utility", "notes")
	t.AddRow("healthy (optimized)", fmt.Sprintf("%.4f", res.Healthy), "")
	t.AddRow("failed, stale routing", fmt.Sprintf("%.4f", res.Degraded),
		fmt.Sprintf("link %s down, crossing flows black-holed", res.FailedLinkName))
	t.AddRow("repaired warm start", fmt.Sprintf("%.4f", res.Stale),
		fmt.Sprintf("%d stranded flows rehomed", res.RepairedFlows))
	t.AddRow("re-optimized (warm start)", fmt.Sprintf("%.4f", res.Recovered),
		fmt.Sprintf("%d moves in %v", res.ReoptimizeSteps, res.ReoptimizeTime.Truncate(time.Millisecond)))
	return t.Render(os.Stdout)
}

// benchInstance is the shared mid-size congested instance for the
// extension experiments: large enough to be interesting, small enough
// that the dynamic simulation stays fast.
func benchInstance(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed + 32)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// annealCompare reproduces the §2.5 comparison: guided escalation vs a
// naive annealer on the same instance and traffic model.
func annealCompare(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	t := report.NewTable("FUBAR vs naive simulated annealing", "optimizer", "utility", "model evals", "elapsed")
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	start := time.Now()
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	t.AddRow("shortest path (start)", fmt.Sprintf("%.4f", sol.InitialUtility), 1, "-")
	t.AddRow("FUBAR", fmt.Sprintf("%.4f", sol.Utility), sol.Steps, time.Since(start).Truncate(time.Millisecond))
	for _, iters := range []int{3000, 30000, 150000} {
		m2, err := flowmodel.New(topo, mat)
		if err != nil {
			return err
		}
		start = time.Now()
		sa, err := anneal.Run(benchCtx, m2, anneal.Options{Seed: seed, MaxIterations: iters})
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("naive SA %dk iters", iters/1000),
			fmt.Sprintf("%.4f", sa.Utility), sa.Evaluations, time.Since(start).Truncate(time.Millisecond))
	}
	return t.Render(os.Stdout)
}

// validate compares the analytic model's bundle rates with the dynamic
// simulation's time averages, for both shortest-path and FUBAR routing.
func validate(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	t := report.NewTable("analytic model vs AIMD simulation", "allocation", "bundles", "correlation", "mean rel err", "max rel err")
	addCase := func(name string, bundles []flowmodel.Bundle) error {
		res := model.Evaluate(bundles).Clone()
		simRes, err := dsim.Simulate(topo, mat, bundles, dsim.Config{Seed: seed})
		if err != nil {
			return err
		}
		val, err := dsim.Validate(bundles, res, simRes)
		if err != nil {
			return err
		}
		t.AddRow(name, val.Bundles, fmt.Sprintf("%.3f", val.Correlation),
			fmt.Sprintf("%.1f%%", 100*val.MeanRelErr), fmt.Sprintf("%.1f%%", 100*val.MaxRelErr))
		return nil
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		return err
	}
	if err := addCase("shortest paths", sp.Bundles); err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	if err := addCase("FUBAR", sol.Bundles); err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

// dynamicQueues re-runs the §3 queue-avoidance claim on simulated
// drop-tail queues.
func dynamicQueues(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	t := report.NewTable("simulated queueing (AIMD + drop-tail)", "allocation", "mean queue", "worst queue", "sim utility")
	for _, c := range []struct {
		name    string
		bundles []flowmodel.Bundle
	}{{"shortest paths", sp.Bundles}, {"FUBAR", sol.Bundles}} {
		simRes, err := dsim.Simulate(topo, mat, c.bundles, dsim.Config{Seed: seed})
		if err != nil {
			return err
		}
		t.AddRow(c.name, fmt.Sprintf("%.3f ms", simRes.MeanQueueMs),
			fmt.Sprintf("%.2f ms", simRes.MaxQueueMs), fmt.Sprintf("%.4f", simRes.NetworkUtility))
	}
	return t.Render(os.Stdout)
}

// mplsSync installs the allocation as reserved tunnels and reports the
// signaling outcome.
func mplsSync(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	db, err := mpls.NewDB(topo)
	if err != nil {
		return err
	}
	stats, err := mpls.SyncSolution(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
	if err != nil {
		return err
	}
	var maxU, sumU float64
	used := 0
	for _, u := range db.Utilization() {
		if u <= 0 {
			continue
		}
		used++
		sumU += u
		if u > maxU {
			maxU = u
		}
	}
	t := report.NewTable("MPLS-TE tunnel sync", "metric", "value")
	t.AddRow("tunnels admitted", stats.Admitted)
	t.AddRow("tunnels failed", len(stats.Failed))
	t.AddRow("links reserved", used)
	t.AddRow("mean reservation", fmt.Sprintf("%.1f%%", 100*sumU/float64(used)))
	t.AddRow("max reservation", fmt.Sprintf("%.1f%%", 100*maxU))
	t.AddRow("allocation utility", fmt.Sprintf("%.4f", sol.Utility))
	return t.Render(os.Stdout)
}

// fig12 prints the Figure 1 and 2 utility component curves.
func fig12() error {
	for _, fn := range []utility.Function{utility.RealTime(), utility.Bulk(), utility.LargeFile(1000 * unit.Kbps)} {
		t := report.NewTable(fmt.Sprintf("%s bandwidth component", fn.Name()), "kbps", "utility")
		peak := float64(fn.PeakBandwidth())
		for i := 0; i <= 10; i++ {
			x := peak * float64(i) / 5 // up to 2x peak
			t.AddRow(fmt.Sprintf("%.0f", x), fn.EvalBandwidth(unit.Bandwidth(x)))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		d := report.NewTable(fmt.Sprintf("%s delay component", fn.Name()), "ms", "utility")
		for _, ms := range []float64{0, 25, 50, 75, 100, 150, 200, 500, 1000, 2000, 3000} {
			d.AddRow(fmt.Sprintf("%.0f", ms), fn.EvalDelay(unit.Delay(ms)))
		}
		if err := d.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// timeSeriesExperiment renders the three panels of Figs 3-5.
func timeSeriesExperiment(cfg experiment.Config, opts core.Options, csv bool) error {
	cfg.Options = opts
	r, err := experiment.Run(benchCtx, cfg)
	if err != nil {
		return err
	}
	printRunSummary(r)

	chart := report.NewLineChart("average utility over time", 72, 14)
	chart.AddSeries(r.Utility)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("  reference: upper bound = %.4f, shortest path = %.4f\n", r.UpperBound, r.ShortestPath)

	lc := report.NewLineChart("utility of large flows", 72, 10)
	lc.AddSeries(r.LargeUtility)
	if err := lc.Render(os.Stdout); err != nil {
		return err
	}

	uc := report.NewLineChart("link utilization", 72, 12)
	uc.AddSeries(r.ActualUtilization)
	uc.AddSeries(r.DemandedUtilization)
	if err := uc.Render(os.Stdout); err != nil {
		return err
	}
	if csv {
		if err := report.SeriesCSV(os.Stdout, 60, r.Utility, r.LargeUtility, r.ActualUtilization, r.DemandedUtilization); err != nil {
			return err
		}
	}
	return nil
}

func printRunSummary(r *experiment.RunResult) {
	sol := r.Solution
	fmt.Printf("topology: %s\n", r.Topology.Summary())
	fmt.Printf("traffic:  %s\n", r.Matrix.Summary())
	fmt.Printf("result:   utility %.4f (shortest-path %.4f, upper bound %.4f), +%.1f%% over shortest path\n",
		sol.Utility, r.ShortestPath, r.UpperBound, 100*(sol.Utility-r.ShortestPath)/r.ShortestPath)
	fmt.Printf("          %d steps, %d escalations, %.1f paths/aggregate, stop=%s, elapsed=%v\n",
		sol.Steps, sol.Escalations, sol.PathsPerAggregate, sol.Stop, sol.Elapsed.Truncate(time.Millisecond))
	last, _ := r.ActualUtilization.Last()
	lastD, _ := r.DemandedUtilization.Last()
	fmt.Printf("          final utilization: actual %.3f, demanded %.3f (gap %.3f)\n",
		last.V, lastD.V, lastD.V-last.V)
}

// fig6 runs underprovisioned base vs relaxed-delay and prints both delay
// CDFs.
func fig6(seed int64, opts core.Options) error {
	baseCfg := experiment.Underprovisioned(seed)
	baseCfg.Options = opts
	base, err := experiment.Run(benchCtx, baseCfg)
	if err != nil {
		return err
	}
	relCfg := experiment.RelaxedDelay(seed)
	relCfg.Options = opts
	rel, err := experiment.Run(benchCtx, relCfg)
	if err != nil {
		return err
	}
	cdfBase := metrics.NewCDF(base.FlowDelayMs)
	cdfRel := metrics.NewCDF(rel.FlowDelayMs)
	chart := report.NewCDFChart("per-flow path RTT", "ms", 72, 14)
	chart.AddCDF("underprovisioned", cdfBase)
	chart.AddCDF("underprovisioned, relaxed delay", cdfRel)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	t := report.NewTable("delay quantiles (ms)", "case", "p50", "p90", "p99", "max", "utility")
	t.AddRow("original", cdfBase.Quantile(0.5), cdfBase.Quantile(0.9), cdfBase.Quantile(0.99), cdfBase.Quantile(1), base.Solution.Utility)
	t.AddRow("relaxed", cdfRel.Quantile(0.5), cdfRel.Quantile(0.9), cdfRel.Quantile(0.99), cdfRel.Quantile(1), rel.Solution.Utility)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("median delay shift: %+.1f ms, p99 shift: %+.1f ms\n",
		cdfRel.Quantile(0.5)-cdfBase.Quantile(0.5), cdfRel.Quantile(0.99)-cdfBase.Quantile(0.99))
	return nil
}

// queues compares queueing of shortest-path routing against the
// optimized allocation in both capacity regimes. The §3 claim is about
// *long* queues: in the provisioned case FUBAR eliminates saturated
// links outright; when capacity is short it deliberately runs more links
// at moderate load (higher mean) while still shrinking the saturated
// hot-spot set.
func queues(seed int64, opts core.Options) error {
	for _, tc := range []struct {
		name string
		cfg  experiment.Config
	}{
		{"provisioned", experiment.Provisioned(seed)},
		{"underprovisioned", experiment.Underprovisioned(seed)},
	} {
		tc.cfg.Options = opts
		r, err := experiment.Run(benchCtx, tc.cfg)
		if err != nil {
			return err
		}
		model, err := flowmodel.New(r.Topology, r.Matrix)
		if err != nil {
			return err
		}
		sp, err := baseline.ShortestPath(model, opts.Policy)
		if err != nil {
			return err
		}
		ratio, before, after, err := netsim.Compare(r.Topology, model, sp.Bundles, r.Solution.Bundles, netsim.Config{})
		if err != nil {
			return err
		}
		t := report.NewTable(tc.name+": queueing (M/M/1 estimate)",
			"allocation", "mean queue (ms)", "max queue (ms)", "saturated links")
		t.AddRow("shortest path", before.MeanQueueMs, before.MaxQueueMs, before.SaturatedLinks)
		t.AddRow("FUBAR", after.MeanQueueMs, after.MaxQueueMs, after.SaturatedLinks)
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("mean queueing ratio (before/after): %.2fx, saturated links %d -> %d\n",
			ratio, before.SaturatedLinks, after.SaturatedLinks)
	}
	return nil
}

// fig7 runs the repeatability experiment.
func fig7(seed int64, runs int, opts core.Options) error {
	cfg := experiment.Provisioned(seed)
	cfg.Options = opts
	r, err := experiment.Repeatability(benchCtx, cfg, runs)
	if err != nil {
		return err
	}
	chart := report.NewCDFChart(fmt.Sprintf("final utility across %d runs", r.Runs), "utility", 72, 14)
	chart.AddCDF("utility (FUBAR)", r.Fubar)
	chart.AddCDF("shortest-path utility", r.ShortestPath)
	chart.AddCDF("maximal utility", r.UpperBound)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	t := report.NewTable("summary", "series", "mean", "p10", "p50", "p90")
	for _, row := range []struct {
		name string
		cdf  *metrics.CDF
	}{
		{"FUBAR", r.Fubar}, {"shortest path", r.ShortestPath}, {"upper bound", r.UpperBound},
	} {
		s := metrics.Summarize(row.cdf.Values())
		t.AddRow(row.name, s.Mean, s.P10, s.P50, s.P90)
	}
	return t.Render(os.Stdout)
}

func runtimeTable(seed int64, opts core.Options) error {
	rows, err := experiment.RuntimeTable(benchCtx, seed, opts)
	if err != nil {
		return err
	}
	t := report.NewTable("running time (§3)", "case", "elapsed", "steps", "utility", "paths/agg", "stop")
	for _, r := range rows {
		t.AddRow(r.Name, r.Elapsed, r.Steps, r.Utility, r.PathsPer, r.Stop.String())
	}
	return t.Render(os.Stdout)
}

// ablation compares path-choice modes and escalation on the provisioned
// case (the §2.4 "we tried different approaches" claim).
func ablation(seed int64, opts core.Options) error {
	t := report.NewTable("ablations (provisioned case)", "variant", "utility", "steps", "elapsed", "stop")
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full trio (paper)", func(o *core.Options) {}},
		{"global only", func(o *core.Options) { o.AltMode = core.AltGlobalOnly }},
		{"local only", func(o *core.Options) { o.AltMode = core.AltLocalOnly }},
		{"link-local only", func(o *core.Options) { o.AltMode = core.AltLinkLocalOnly }},
		{"no escalation", func(o *core.Options) { o.DisableEscalation = true }},
	}
	for _, v := range variants {
		cfg := experiment.Provisioned(seed)
		cfg.Options = opts
		v.mod(&cfg.Options)
		r, err := experiment.Run(benchCtx, cfg)
		if err != nil {
			return err
		}
		t.AddRow(v.name, r.Solution.Utility, r.Solution.Steps,
			r.Solution.Elapsed, r.Solution.Stop.String())
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(`
The paper picks the global/local/link-local trio as "the best tradeoff
between speed and solution quality"; the rows above quantify that choice
on this reproduction.`))
	return nil
}
