package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// waxmanScaleInstance builds a ~200-node Waxman instance with a sparse
// random matrix — the test-local analogue of the scenario package's
// scale presets (core tests cannot import scenario: it imports core).
// Calibrated so shortest-path routing is congested but the congestion is
// localized (delta evaluations rarely fall back).
func waxmanScaleInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Waxman(200, 0.15, 0.15, 20*unit.Mbps, 50*unit.Millisecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(seed + 1)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, 1200)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// TestScaleWorkerDeterminism asserts the scale-out pipeline's acceptance
// criterion on a ~200-node instance: the committed move sequence —
// per-step utility trajectory, final bundles, utility, stop reason — is
// bit-identical across worker counts, DeltaEval on/off and telemetry
// on/off.
func TestScaleWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 200-node determinism matrix")
	}
	topo, mat := waxmanScaleInstance(t, 3)
	const maxSteps = 12
	base := Options{Workers: 1, DeltaEval: DeltaAuto, MaxSteps: maxSteps}
	ref, refTrace := runWithOptions(t, topo, mat, base)
	if ref.Steps == 0 {
		t.Fatal("reference run committed no moves; instance not congested")
	}
	if ref.Delta.Calls == 0 || ref.Delta.Fallbacks*4 > ref.Delta.Calls {
		t.Fatalf("instance miscalibrated for the delta path: %d fallbacks of %d calls",
			ref.Delta.Fallbacks, ref.Delta.Calls)
	}
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"workers=1 delta off", func(o *Options) { o.DeltaEval = DeltaOff }},
		{"workers=4", func(o *Options) { o.Workers = 4 }},
		{"workers=4 delta off", func(o *Options) { o.Workers = 4; o.DeltaEval = DeltaOff }},
		// Telemetry must observe without perturbing: instrumented runs
		// commit the identical move sequence (ISSUE 7 acceptance).
		{"workers=1 telemetry", func(o *Options) { o.Telemetry = telemetry.New() }},
		{"workers=4 telemetry", func(o *Options) { o.Workers = 4; o.Telemetry = telemetry.New() }},
	}
	for _, v := range variants {
		opts := base
		v.mod(&opts)
		sol, trace := runWithOptions(t, topo, mat, opts)
		if sol.Steps != ref.Steps {
			t.Errorf("%s: steps = %d, want %d", v.name, sol.Steps, ref.Steps)
		}
		if sol.Utility != ref.Utility {
			t.Errorf("%s: utility = %v, want %v (exact)", v.name, sol.Utility, ref.Utility)
		}
		if sol.Stop != ref.Stop {
			t.Errorf("%s: stop = %v, want %v", v.name, sol.Stop, ref.Stop)
		}
		if !reflect.DeepEqual(sol.Bundles, ref.Bundles) {
			t.Errorf("%s: committed bundles differ from reference", v.name)
		}
		if !reflect.DeepEqual(trace, refTrace) {
			t.Errorf("%s: per-step utility trajectory differs from reference", v.name)
		}
	}
}

// TestPatchRevertInvariant drives a real optimization with an
// instrumented candidate evaluator and asserts the patch-and-revert
// contract: every candidate's trial buffer equals the step's committed
// dense layout except at exactly the candidate's two patched indices,
// with the aggregate's total flow count preserved. Any failed revert
// leaves a stale entry that the next candidate's comparison catches.
func TestPatchRevertInvariant(t *testing.T) {
	for _, workers := range []int{1, 4} {
		topo, mat := congestedInstance(t, 5)
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(model, Options{Workers: workers, MaxSteps: 20})
		if err != nil {
			t.Fatal(err)
		}
		var candidates atomic.Int64
		var failures atomic.Int64
		o.probe = func(w *worker, buf []flowmodel.Bundle, changed []int, base *flowmodel.Base) float64 {
			candidates.Add(1)
			fail := func(format string, args ...any) {
				if failures.Add(1) <= 5 { // cap the error spam
					t.Errorf("workers=%d candidate %d: %s", workers, candidates.Load(), fmt.Sprintf(format, args...))
				}
			}
			if len(buf) != len(o.denseBuf) {
				fail("trial buffer length %d != dense layout %d", len(buf), len(o.denseBuf))
				return 0
			}
			if len(changed) != 2 || changed[0] >= changed[1] {
				fail("changed indices %v, want two ascending", changed)
			}
			for i := range buf {
				if i == changed[0] || i == changed[1] {
					continue
				}
				if !reflect.DeepEqual(buf[i], o.denseBuf[i]) {
					fail("entry %d differs from committed layout outside the patch (stale revert?)", i)
				}
			}
			patched := buf[changed[0]].Flows + buf[changed[1]].Flows
			committed := o.denseBuf[changed[0]].Flows + o.denseBuf[changed[1]].Flows
			if patched != committed {
				fail("patch does not conserve flows: %d vs %d", patched, committed)
			}
			u, _ := w.eval.EvaluateDeltaUtility(base, buf, changed)
			return u
		}
		sol, err := o.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Steps == 0 {
			t.Fatalf("workers=%d: run committed no moves", workers)
		}
		if candidates.Load() < 100 {
			t.Fatalf("workers=%d: probe saw only %d candidates", workers, candidates.Load())
		}
	}
}
