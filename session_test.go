package fubar_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fubar"
	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/scenario"
)

func sessionInstance(t *testing.T) (*fubar.Topology, *fubar.Matrix) {
	t.Helper()
	topo, err := fubar.RingTopology(8, 4, 1200*fubar.Kbps, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fubar.DefaultGenConfig(11)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := fubar.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// TestSessionOptimizeMatchesFreeFunction proves the Session path commits
// the exact solution of a one-shot core.Run over a fresh model, and that
// a second Optimize warm-starts from the first (the long-lived-controller
// idempotence the Session exists for).
func TestSessionOptimizeMatchesFreeFunction(t *testing.T) {
	topo, mat := sessionInstance(t)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	old, err := core.Run(context.Background(), model, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility != old.Utility || sol.Steps != old.Steps || !reflect.DeepEqual(sol.Bundles, old.Bundles) {
		t.Fatalf("session solution diverged: utility %v vs %v, steps %d vs %d",
			sol.Utility, old.Utility, sol.Steps, old.Steps)
	}
	if s.Last() != sol {
		t.Fatal("Last() does not return the committed solution")
	}
	again, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Utility < sol.Utility {
		t.Fatalf("warm re-optimize regressed utility %v -> %v", sol.Utility, again.Utility)
	}
	if again.Steps > sol.Steps/4+1 {
		t.Fatalf("warm re-optimize of an optimum took %d steps (cold %d)", again.Steps, sol.Steps)
	}
}

// TestSessionReplayStreamsAndMatches proves Session.Replay yields the
// epochs a one-shot scenario.Run returns, epoch by epoch.
func TestSessionReplayStreamsAndMatches(t *testing.T) {
	topo, mat := sessionInstance(t)
	day := fubar.DiurnalScenario(7, 5, 0.4, 0.15)
	old, err := scenario.Run(context.Background(), topo, mat, day, scenario.Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ReplayAll(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equivalent(old) {
		t.Fatalf("session replay diverged from scenario.Run:\n new=%+v\n old=%+v", got.Epochs, old.Epochs)
	}
}

// closedLoopScenario is a short mixed timeline for the wire tests.
func closedLoopScenario(seed int64) fubar.Scenario {
	return fubar.Scenario{
		Name: "mixed", Seed: seed, Epochs: 4,
		Events: []fubar.ScenarioEvent{
			{Epoch: 0, Kind: fubar.EventDemandScale, Factor: 0.9},
			{Epoch: 1, Kind: fubar.EventLinkFail, Link: 0},
			{Epoch: 2, Kind: fubar.EventDemandScale, Factor: 1.2},
			{Epoch: 3, Kind: fubar.EventLinkRecover, Link: 0},
		},
	}
}

// TestSessionClosedLoopMatchesFreeFunction is the acceptance check: a
// same-seed uncancelled Session.ReplayClosedLoop is bit-identical to a
// one-shot scenario.RunClosedLoop (epoch table and install sequence),
// while streaming epoch by epoch instead of buffering.
func TestSessionClosedLoopMatchesFreeFunction(t *testing.T) {
	topo, mat := sessionInstance(t)
	sc := closedLoopScenario(21)
	old, err := scenario.RunClosedLoop(context.Background(), topo, mat, sc, scenario.ClosedLoopOptions{
		Core: core.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReplayClosedLoopAll(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the per-epoch install copies (streaming detail carried by
	// both collectors) before the table comparison — the sequence logs
	// are compared via Result.Installs below.
	for i := range got.Epochs {
		if len(got.Epochs[i].Installs) == 0 {
			t.Fatalf("epoch %d carried no install records", i)
		}
		got.Epochs[i].Installs = nil
	}
	for i := range old.Epochs {
		old.Epochs[i].Installs = nil
	}
	if !got.Equivalent(old) {
		t.Fatalf("session closed loop diverged from scenario.RunClosedLoop:\n new=%+v\n old=%+v\n installs new=%+v old=%+v",
			got.Epochs, old.Epochs, got.Installs, old.Installs)
	}
}

// TestSessionClosedLoopCancel is the other half of the acceptance
// check: a cancelled context stops a closed-loop replay mid-scenario,
// with the already-yielded epochs standing and the stream ending in
// context.Canceled.
func TestSessionClosedLoopCancel(t *testing.T) {
	topo, mat := sessionInstance(t)
	sc := closedLoopScenario(21)
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int
	var final error
	for er, err := range s.ReplayClosedLoop(ctx, sc) {
		if err != nil {
			final = err
			continue
		}
		done++
		if er.Epoch == 1 {
			cancel()
		}
	}
	if done != 2 {
		t.Fatalf("cancelled after epoch 1 but %d epochs were yielded", done)
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("stream final error = %v, want context.Canceled", final)
	}
}

// TestSessionReplayConstantMemory spot-checks the O(1)-memory claim:
// streaming a long replay must not accumulate per-epoch state in the
// session (the stream holds one EpochRecord at a time; this guards
// against an accidental []EpochResult buffer reappearing).
func TestSessionReplayConstantMemory(t *testing.T) {
	topo, mat := sessionInstance(t)
	day := fubar.DiurnalScenario(7, 40, 0.3, 0)
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1), fubar.WithOptions(fubar.Options{Workers: 1, MaxSteps: 4}))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var prev *fubar.EpochRecord
	for er, err := range s.Replay(context.Background(), day) {
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && er.Epoch != prev.Epoch+1 {
			t.Fatalf("epochs out of order: %d after %d", er.Epoch, prev.Epoch)
		}
		e := er
		prev = &e
		seen++
	}
	if seen != 40 {
		t.Fatalf("streamed %d epochs, want 40", seen)
	}
}
