package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// def names one reported metric.
type def struct{ name, unit string }

// endToEnd lists the metrics of untraced runs, in BENCHMARK.json order.
// Every workload reports all of them:
//
//   - solve_s_p50: wall time of one cold core.Run — each Optimize on
//     solve-cold, the cold epoch 0 of every replay on replay-warm, the
//     elapsed_ns of every stream's epoch 0 on closedloop-daemon.
//   - epoch_ms_mean/p90: time per re-plan as the caller sees it — the
//     gap between yielded warm epochs (replay-warm), between JSONL
//     lines (closedloop-daemon); on solve-cold every re-plan is a cold
//     solve, so these are its solve-time distribution. The central
//     value is a mean, not a median: a day's epochs form clusters of
//     light and heavy re-plans (on replay-warm about 13 of 23 warm
//     epochs are light), so the median sits on a cluster edge and jumps
//     between runs while the mean, the day's re-plan time per epoch,
//     holds steady.
//   - first_epoch_ms_p50: from the request that starts a controller to
//     its first plan — POST to first JSONL line (closedloop-daemon),
//     Replay call to epoch 0 (replay-warm), the cold solve (solve-cold).
//   - utility_mean: exact — final utility (solve-cold), mean epoch
//     utility (replay-warm), mean TrueUtility (closedloop-daemon).
//   - flowmods_per_epoch: exact flow-table operations per plan — wire
//     FlowMods counted by the control plane (closedloop-daemon), the
//     replay's FlowMods estimate (replay-warm), the bundles of the cold
//     install (solve-cold).
//   - peak_rss_mb: the process's peak resident set.
//
// Failed operations are reported by the result line's attempted and
// failed counts rather than as a metric, since a healthy run has none.
var endToEnd = []def{
	{"setup_s", "s"},
	{"solve_s_p50", "s"},
	{"epoch_ms_mean", "ms"},
	{"epoch_ms_p90", "ms"},
	{"first_epoch_ms_p50", "ms"},
	{"utility_mean", "utility"},
	{"flowmods_per_epoch", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of traced runs, in BENCHMARK.json order.
var perLayer = []def{
	{"graph.shortest_path_us_p50", "us"},
	{"graph.allocs_per_search", "allocs"},
	{"pathgen.alternatives_us_p50", "us"},
	{"pathgen.allocs_per_alternatives", "allocs"},
	{"pathgen.lowest_delay_sweep_ms", "ms"},
	{"flowmodel.evaluate_ms", "ms"},
	{"flowmodel.delta_util_us_p50", "us"},
	{"flowmodel.full_us_p50", "us"},
	{"flowmodel.affected_share", "ratio"},
	{"flowmodel.fallback_ratio", "ratio"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p99", "ms"},
	{"core.candidates_per_step", "count"},
	{"core.commit_ratio", "ratio"},
	{"core.base_captures", "count"},
	{"core.base_rebases", "count"},
	{"core.allocs_per_candidate", "allocs"},
	{"core.gc_cpu_share", "ratio"},
	{"core.parallel_speedup", "x"},
	{"scenario.optimize_ms_p50", "ms"},
	{"scenario.outside_optimize_ms_p50", "ms"},
	{"scenario.steps_per_epoch", "count"},
	{"scenario.idle_epoch_share", "ratio"},
	{"scenario.repair_moved_flows_per_epoch", "count"},
	{"ctrlplane.start_ms", "ms"},
	{"ctrlplane.install_ms_p50", "ms"},
	{"ctrlplane.collect_stats_ms_p50", "ms"},
	{"ctrlplane.rules_per_flowmod", "count"},
	{"ctrlplane.resync_flowmods_per_failover", "count"},
	{"sdnsim.run_epoch_ms", "ms"},
	{"measure.estimate_ms", "ms"},
	{"mpls.plan_transition_ms", "ms"},
	{"daemon.create_ms_p50", "ms"},
	{"daemon.worker_waits", "count"},
	{"daemon.encode_us_per_epoch", "us"},
	{"daemon.stream_overhead_ms_p50", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.layers_sum_share", "ratio"},
}

// layerTargets names, for each per-layer metric, the end-to-end metric
// it should move and the workload that shows it; on the other workloads
// the prediction is no change.
var layerTargets = map[string]string{
	"graph.shortest_path_us_p50":             "solve_s_p50 on solve-cold; epoch_ms_mean on replay-warm",
	"graph.allocs_per_search":                "solve_s_p50 on solve-cold; epoch_ms_mean on replay-warm",
	"pathgen.alternatives_us_p50":            "solve_s_p50 on solve-cold",
	"pathgen.allocs_per_alternatives":        "solve_s_p50 on solve-cold",
	"pathgen.lowest_delay_sweep_ms":          "epoch_ms_mean on replay-warm",
	"flowmodel.evaluate_ms":                  "epoch_ms_mean on replay-warm",
	"flowmodel.delta_util_us_p50":            "solve_s_p50 on solve-cold",
	"flowmodel.full_us_p50":                  "nothing (full evaluation is the oracle)",
	"flowmodel.affected_share":               "solve_s_p50 on solve-cold",
	"flowmodel.fallback_ratio":               "solve_s_p50 on solve-cold",
	"core.step_ms_p50":                       "solve_s_p50 on solve-cold",
	"core.step_ms_p99":                       "solve_s_p50 on solve-cold",
	"core.candidates_per_step":               "solve_s_p50 on solve-cold",
	"core.commit_ratio":                      "solve_s_p50 on solve-cold",
	"core.base_captures":                     "solve_s_p50 on solve-cold",
	"core.base_rebases":                      "solve_s_p50 on solve-cold",
	"core.allocs_per_candidate":              "solve_s_p50 on solve-cold; epoch_ms_mean on replay-warm",
	"core.gc_cpu_share":                      "solve_s_p50 on solve-cold; epoch_ms_mean on replay-warm",
	"core.parallel_speedup":                  "solve_s_p50 on solve-cold",
	"scenario.optimize_ms_p50":               "epoch_ms_mean on replay-warm and closedloop-daemon",
	"scenario.outside_optimize_ms_p50":       "epoch_ms_mean on replay-warm and closedloop-daemon",
	"scenario.steps_per_epoch":               "epoch_ms_mean on replay-warm and closedloop-daemon",
	"scenario.idle_epoch_share":              "epoch_ms_mean on replay-warm and closedloop-daemon",
	"scenario.repair_moved_flows_per_epoch":  "epoch_ms_mean on replay-warm and closedloop-daemon",
	"ctrlplane.start_ms":                     "first_epoch_ms_p50 on closedloop-daemon",
	"ctrlplane.install_ms_p50":               "epoch_ms_mean on closedloop-daemon",
	"ctrlplane.collect_stats_ms_p50":         "epoch_ms_mean on closedloop-daemon",
	"ctrlplane.rules_per_flowmod":            "epoch_ms_mean on closedloop-daemon",
	"ctrlplane.resync_flowmods_per_failover": "epoch_ms_mean on closedloop-daemon",
	"sdnsim.run_epoch_ms":                    "epoch_ms_mean on closedloop-daemon",
	"measure.estimate_ms":                    "epoch_ms_mean on closedloop-daemon",
	"mpls.plan_transition_ms":                "epoch_ms_mean on closedloop-daemon",
	"daemon.create_ms_p50":                   "first_epoch_ms_p50 on closedloop-daemon",
	"daemon.worker_waits":                    "first_epoch_ms_p50 on closedloop-daemon",
	"daemon.encode_us_per_epoch":             "epoch_ms_mean on closedloop-daemon",
	"daemon.stream_overhead_ms_p50":          "epoch_ms_mean on closedloop-daemon",
	"bench.trace_overhead_pct":               "nothing (cost of the traced run's spans and observer)",
	"bench.layers_sum_share":                 "nothing (self times of the traced loop over its wall time; must stay within layersTolerance of 1)",
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or
// NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs (mean of the middle two for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuCounters reads cumulative total and GC CPU seconds from the
// runtime.
func cpuCounters() (total, gc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		total = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gc = s[1].Value.Float64()
	}
	return total, gc
}

// mallocs returns the cumulative heap allocation count, so the
// difference of two calls counts the allocations between them.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sourceDigest hashes the Go sources and module files under root
// (skipping hidden directories such as .bench_build), so a record names
// the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
