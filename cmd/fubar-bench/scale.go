package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/report"
	"fubar/internal/scenario"
)

// scalePoint is one cell of the scaling curve: one preset instance
// optimized end to end at one worker count.
type scalePoint struct {
	Preset     string  `json:"preset"`
	Nodes      int     `json:"nodes"`
	Links      int     `json:"links"`
	Aggregates int     `json:"aggregates"`
	Workers    int     `json:"workers"`
	RunNs      int64   `json:"run_ns"`
	Steps      int     `json:"steps"`
	Utility    float64 `json:"utility"`
	// Candidates counts candidate scoring evaluations (delta calls);
	// PerCandNs is the amortized end-to-end cost per candidate —
	// collection, patching, scoring and commits included.
	Candidates    int64   `json:"candidates"`
	PerCandNs     int64   `json:"per_candidate_ns"`
	AllocsPerCand float64 `json:"allocs_per_candidate"`
	Fallbacks     int64   `json:"delta_fallbacks"`
	Expansions    int64   `json:"delta_expansions"`
	// Deterministic reports whether this run's move sequence and final
	// utility matched the first worker count's run of the same preset.
	Deterministic bool `json:"deterministic"`
}

// scaleCandidateBench is the per-candidate median comparison on the
// largest benched preset (three-way differential at Workers=1): the
// utility-only delta scoring the optimizer uses vs a full-Result delta
// vs a full evaluation.
type scaleCandidateBench struct {
	Preset        string  `json:"preset"`
	Candidates    int     `json:"candidates"`
	Identical     bool    `json:"identical"`
	Workers       int     `json:"workers"`
	MedianFullNs  int64   `json:"median_full_ns"`
	MedianDeltaNs int64   `json:"median_delta_ns"`
	MedianUtilNs  int64   `json:"median_util_ns"`
	UtilSpeedup   float64 `json:"median_util_speedup_vs_full"`
	UtilVsDelta   float64 `json:"median_util_speedup_vs_delta"`
}

// scaleBenchRecord is the JSON record `-exp scale` writes: end-to-end
// scaling curves across Workers x instance size, the per-candidate
// median comparison on the largest preset, and the determinism verdict.
type scaleBenchRecord struct {
	Benchmark      string               `json:"benchmark"`
	Seed           int64                `json:"seed"`
	GOMAXPROCS     int                  `json:"gomaxprocs"`
	NumCPU         int                  `json:"num_cpu"`
	MaxSteps       int                  `json:"max_steps"`
	Presets        []string             `json:"presets"`
	Workers        []int                `json:"workers"`
	Points         []scalePoint         `json:"points"`
	CandidateBench *scaleCandidateBench `json:"candidate_bench,omitempty"`
	Deterministic  bool                 `json:"deterministic"`
}

// scaleBench runs the scaling benchmark: every preset x worker count end
// to end (steps capped so the big instances stay tractable), plus the
// three-way per-candidate differential on the largest preset, and writes
// BENCH_scale.json.
func scaleBench(presetCSV string, workersCSV string, seed int64, maxSteps int, outPath string) error {
	presets := strings.Split(presetCSV, ",")
	var workerCounts []int
	for _, f := range strings.Split(workersCSV, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &w); err != nil || w < 1 {
			return fmt.Errorf("scale: bad worker count %q", f)
		}
		workerCounts = append(workerCounts, w)
	}
	rec := scaleBenchRecord{
		Benchmark:     "scale-out step pipeline: end-to-end and per-candidate scaling on large Waxman instances",
		Seed:          seed,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		MaxSteps:      maxSteps,
		Presets:       presets,
		Workers:       workerCounts,
		Deterministic: true,
	}
	t := report.NewTable("scaling curves (MaxSteps="+fmt.Sprint(maxSteps)+")",
		"preset", "workers", "run", "steps", "candidates", "ns/cand", "allocs/cand", "det")
	for _, preset := range presets {
		preset = strings.TrimSpace(preset)
		topo, mat, err := scenario.ScaleInstance(preset, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s, %d aggregates\n", preset, topo.Summary(), mat.NumAggregates())
		var ref *core.Solution
		for _, w := range workerCounts {
			if benchCtx.Err() != nil {
				return benchCtx.Err()
			}
			opts := core.Options{Workers: w, MaxSteps: maxSteps, DeltaEval: core.DeltaAuto}
			// Best of scaleRounds: single runs are too noisy to
			// compare worker counts tens of microseconds apart.
			const scaleRounds = 3
			var elapsed time.Duration
			var mallocs uint64
			var sol *core.Solution
			for round := 0; round < scaleRounds; round++ {
				model, err := flowmodel.New(topo, mat)
				if err != nil {
					return err
				}
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				s, err := core.Run(benchCtx, model, opts)
				d := time.Since(start)
				if err != nil {
					return err
				}
				runtime.ReadMemStats(&ms1)
				if sol == nil || d < elapsed {
					elapsed = d
					mallocs = ms1.Mallocs - ms0.Mallocs
				}
				sol = s
			}
			if ref == nil {
				ref = sol
			}
			det := sol.Steps == ref.Steps && sol.Utility == ref.Utility &&
				reflect.DeepEqual(sol.Bundles, ref.Bundles)
			if !det {
				rec.Deterministic = false
			}
			cands := sol.Delta.Calls
			p := scalePoint{
				Preset:        preset,
				Nodes:         topo.NumNodes(),
				Links:         topo.NumLinks(),
				Aggregates:    mat.NumAggregates(),
				Workers:       w,
				RunNs:         elapsed.Nanoseconds(),
				Steps:         sol.Steps,
				Utility:       sol.Utility,
				Candidates:    cands,
				Fallbacks:     sol.Delta.Fallbacks,
				Expansions:    sol.Delta.Expansions,
				Deterministic: det,
			}
			if cands > 0 {
				p.PerCandNs = elapsed.Nanoseconds() / cands
				p.AllocsPerCand = float64(mallocs) / float64(cands)
			}
			rec.Points = append(rec.Points, p)
			t.AddRow(preset, w, elapsed.Truncate(time.Millisecond),
				sol.Steps, cands, p.PerCandNs, fmt.Sprintf("%.1f", p.AllocsPerCand), det)
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// Per-candidate medians on the largest preset: the three-way
	// differential (also a bit-equality assertion over every candidate).
	largest := strings.TrimSpace(presets[len(presets)-1])
	topo, mat, err := scenario.ScaleInstance(largest, seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	cbSteps := maxSteps
	if cbSteps > 10 {
		cbSteps = 10 // each candidate also gets a full O(instance) evaluation
	}
	cb, err := core.RunCandidateBench(model, core.Options{MaxSteps: cbSteps})
	if err != nil {
		return err
	}
	if !cb.Identical {
		return fmt.Errorf("scale: candidate utilities diverged across evaluation modes on %s", largest)
	}
	utilVsDelta := 0.0
	if m := cb.MedianUtilNs(); m > 0 {
		utilVsDelta = float64(cb.MedianDeltaNs()) / float64(m)
	}
	rec.CandidateBench = &scaleCandidateBench{
		Preset:        largest,
		Candidates:    cb.Candidates(),
		Identical:     cb.Identical,
		Workers:       cb.Workers,
		MedianFullNs:  cb.MedianFullNs(),
		MedianDeltaNs: cb.MedianDeltaNs(),
		MedianUtilNs:  cb.MedianUtilNs(),
		UtilSpeedup:   cb.MedianUtilSpeedup(),
		UtilVsDelta:   utilVsDelta,
	}
	c := report.NewTable("per-candidate medians on "+largest+" (Workers=1)", "strategy", "median", "speedup vs full")
	c.AddRow("full evaluation", time.Duration(cb.MedianFullNs()).String(), "1.00x")
	c.AddRow("delta, full Result", time.Duration(cb.MedianDeltaNs()).String(), fmt.Sprintf("%.2fx", cb.MedianSpeedup()))
	c.AddRow("delta, utility-only (optimizer scoring)", time.Duration(cb.MedianUtilNs()).String(), fmt.Sprintf("%.2fx", cb.MedianUtilSpeedup()))
	if err := c.Render(os.Stdout); err != nil {
		return err
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scale record written to %s\n", outPath)
	if !rec.Deterministic {
		return fmt.Errorf("scale: runs diverged across worker counts")
	}
	return nil
}
