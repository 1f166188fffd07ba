// Command perfbench is the repository benchmark: one command that runs a
// workload against the fubar library and daemon, checks every output it
// produces, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs) by name and unit. BENCHMARK.json at the
// repository root declares the workloads and metrics; perfbench/run.sh
// builds and runs it:
//
//	bash perfbench/run.sh --workload solve-cold --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// human-readable report and an environment stamp. Any failed
// correctness check makes the command exit 1.
//
// Workloads (each a closed loop: a caller waits for every reply before
// sending the next request):
//
//   - solve-cold: repeated cold Session.Optimize calls on scale-m.
//   - replay-warm: repeated warm diurnal Session.Replay days on scale-s.
//   - closedloop-daemon: an HTTP client cycling tenants through an
//     in-process daemon over 127.0.0.1 (create, closed-loop replay
//     stream, metrics scrape, delete).
//
// Inputs: every workload runs one fixed network per preset (instance
// seed 1). A run draws a pool of inputs from --seed: isomorphic
// relabelings of that network (node numbering, link order and
// orientation, aggregate order) and scenario timeline seeds. Pool
// member 0 is always the gate input (seed 1), whose outcome is compared
// exactly with baseline.json; the others differ for every --seed.
// Drawing a fresh preset instance per seed instead changes the work of
// one cold scale-m solve sixfold (0.65 s to 4.3 s over instance seeds
// 1-10 at Workers=2), which would bury any change under input
// variance; relabelings of one network keep it within a few percent
// while still varying every tie-break the solver makes.
//
// Each member's first operation is its reference and warm-up and is
// not timed; the timed loop then runs whole rounds over the pool until
// --seconds have passed, so every run weighs its members equally.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its parameters, the operation ledger, the
// metrics gathered so far and, in traced runs, the span recorder.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	shape    shape
	ctx      context.Context
	log      io.Writer

	attempted int
	failed    int
	failures  []string

	metrics map[string]metric
	samples map[string]int
	seeds   map[string]any
	spans   *recorder
}

// op records one attempted operation; a non-nil err marks it failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		msg := fmt.Sprintf("%s: %v", what, err)
		if len(b.failures) < 20 {
			b.failures = append(b.failures, msg)
		}
		fmt.Fprintln(b.log, "FAIL", msg)
	}
}

// set records a metric with the number of samples behind it (1 for an
// exact or single-shot value).
func (b *bench) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		fmt.Fprintf(b.log, "note: %s has no samples on this workload; reported as 0\n", name)
		value = 0
	}
	b.metrics[name] = metric{Value: value, Unit: unit}
	b.samples[name] = n
}

// deadline is the end of a measurement window of length d from now.
func deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// shape sizes the workloads: benchShape is the benchmark's, and the
// tests run a smaller one.
type shape struct {
	solvePreset  string // solve-cold's network
	replayPreset string // replay-warm's network
	replayEpochs int    // epochs of one replay-warm day
	daemonEpochs int    // epochs of one closedloop-daemon stream
	solvePool    int    // solve-cold relabelings a run draws from its seed
	replayPool   int    // replay-warm relabelings a run draws from its seed
	timelines    int    // closedloop-daemon scenario seeds a run draws
	gate         bool   // compare gate fingerprints with baseline.json
}

var benchShape = shape{
	solvePreset:  "scale-m",
	replayPreset: "scale-s",
	replayEpochs: 24,
	daemonEpochs: 12,
	solvePool:    2,
	replayPool:   3,
	timelines:    8, // with 4, epoch_ms_mean spread 25% across seeds
	gate:         true,
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"solve-cold":        runSolveCold,
	"replay-warm":       runReplayWarm,
	"closedloop-daemon": runClosedLoopDaemon,
}

func main() {
	os.Exit(runShape(os.Args[1:], os.Stdout, benchShape))
}

// runShape runs the command line args at workload shape sh, writing
// the report to stdout, and returns the exit code.
func runShape(args []string, stdout io.Writer, sh shape) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (solve-cold, replay-warm, closedloop-daemon)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement window per run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	commit := fs.String("commit", "unknown", "commit identifier stamped on the output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  runtime.GOMAXPROCS(0),
		shape:    sh,
		ctx:      context.Background(),
		log:      stdout,
		metrics:  map[string]metric{},
		samples:  map[string]int{},
		seeds:    map[string]any{"seed": *seed},
	}
	if b.trace {
		b.spans = newRecorder()
	}
	if err := runner(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	b.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	return b.report(stdout, *commit)
}

// report prints the human-readable table, the environment stamp, the
// layer-target table of traced runs, and the result line. It returns
// the exit code.
func (b *bench) report(w io.Writer, commit string) int {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := b.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not produce metric %s\n", b.workload, d.name)
			return 1
		}
		out.Metrics[d.name] = m
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d attempted, %d failed\n", b.workload, b.seed, b.trace, b.attempted, b.failed)
	for _, n := range names {
		m := out.Metrics[n]
		line := fmt.Sprintf("  %-40s %14.6g %-8s n=%d", n, m.Value, m.Unit, b.samples[n])
		if b.trace {
			line += "  targets " + layerTargets[n]
		}
		fmt.Fprintln(w, line)
	}
	if b.spans != nil {
		b.spans.printSelfTimes(w)
		path, err := b.spans.write(b.workload, b.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintln(w, "spans written to", path)
		}
	}
	env := map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"source":     sourceDigest("."),
		"workload":   b.workload,
		"seeds":      b.seeds,
		"network":    "daemon traffic and switch control channels cross the loopback interface (127.0.0.1), not a physical network",
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(w, string(envLine))
	if len(b.failures) > 0 {
		fmt.Fprintln(w, "failures:", strings.Join(b.failures, "; "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
