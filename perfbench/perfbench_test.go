package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"fubar"
)

// smallSolve returns a relabeled scale-xs instance and its cold solve.
func smallSolve(t *testing.T) (*fubar.Topology, *fubar.Matrix, *fubar.Solution) {
	t.Helper()
	topo, mat, err := relabeledInstance("scale-xs", 3)
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
	return topo, mat, sol
}

func cloneSolution(sol *fubar.Solution) *fubar.Solution {
	c := *sol
	c.Bundles = make([]fubar.Bundle, len(sol.Bundles))
	for i, bd := range sol.Bundles {
		bd.Edges = append([]fubar.LinkID(nil), bd.Edges...)
		c.Bundles[i] = bd
	}
	return &c
}

func TestRelabelKeepsTheNetwork(t *testing.T) {
	topo0, mat0, err := fubar.ScaleInstance("scale-xs", instanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	topo, mat, err := relabeledInstance("scale-xs", 5)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != topo0.NumNodes() || topo.NumLinks() != topo0.NumLinks() {
		t.Fatalf("relabeled topology %s, original %s", topo.Summary(), topo0.Summary())
	}
	if topo.TotalCapacity() != topo0.TotalCapacity() {
		t.Fatalf("total capacity %v, original %v", topo.TotalCapacity(), topo0.TotalCapacity())
	}
	if mat.NumAggregates() != mat0.NumAggregates() || mat.TotalFlows() != mat0.TotalFlows() || mat.TotalDemand() != mat0.TotalDemand() {
		t.Fatal("relabeled matrix differs in size, flows or demand")
	}
	again, _, err := relabeledInstance("scale-xs", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range topo.Links() {
		if again.Link(fubar.LinkID(i)) != l {
			t.Fatalf("same seed gave a different link %d", i)
		}
	}
}

func TestCheckBundlesRejectsDroppedFlow(t *testing.T) {
	topo, mat, sol := smallSolve(t)
	if err := checkBundles(topo, mat, sol.Bundles); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	dropped := cloneSolution(sol)
	for i := range dropped.Bundles {
		if dropped.Bundles[i].Flows > 0 {
			dropped.Bundles[i].Flows--
			break
		}
	}
	if err := checkBundles(topo, mat, dropped.Bundles); err == nil {
		t.Fatal("allocation with a dropped flow accepted")
	}
	broken := cloneSolution(sol)
	for i := range broken.Bundles {
		if e := broken.Bundles[i].Edges; len(e) > 1 {
			e[0], e[1] = e[1], e[0]
			break
		}
	}
	if err := checkBundles(topo, mat, broken.Bundles); err == nil {
		t.Fatal("allocation with a discontiguous path accepted")
	}
}

func TestSolutionChecksRejectChangedOutcome(t *testing.T) {
	_, _, sol := smallSolve(t)
	if err := sameSolution(sol, cloneSolution(sol)); err != nil {
		t.Fatalf("identical solution rejected: %v", err)
	}
	bit := cloneSolution(sol)
	bit.Utility = math.Float64frombits(math.Float64bits(bit.Utility) ^ 1)
	if err := sameOutcome(sol, bit); err == nil {
		t.Fatal("utility differing in its last bit accepted")
	}
	steps := cloneSolution(sol)
	steps.Steps++
	if err := sameOutcome(sol, steps); err == nil {
		t.Fatal("different step count accepted")
	}
	moved := cloneSolution(sol)
	moved.Bundles[len(moved.Bundles)-1].Flows++
	if err := sameSolution(sol, moved); err == nil {
		t.Fatal("different allocation accepted")
	}
}

// smallStream replays a short scenario in-process and returns its
// reference epochs and the same replay encoded as a JSONL stream.
func smallStream(t *testing.T) ([][]byte, []byte) {
	t.Helper()
	topo, mat, err := fubar.ScaleInstance("scale-xs", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fubar.ScenarioByName("diurnal", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := replayCanonical(&bench{ctx: context.Background()}, s, sc)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := fubar.WriteEpochsJSONL(&body, s.Replay(context.Background(), sc)); err != nil {
		t.Fatal(err)
	}
	return ref, body.Bytes()
}

func TestCheckStreamRejectsCorruptStreams(t *testing.T) {
	ref, body := smallStream(t)
	lines, err := parseStream(bytes.NewReader(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStream(ref, lines, 0); err != nil {
		t.Fatalf("faithful stream rejected: %v", err)
	}
	if err := checkStream(ref, lines[:len(lines)-1], 0); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if err := checkStream(ref, lines, 1); err == nil {
		t.Fatal("stream whose wire FlowMods disagree with the tenant metric accepted")
	}
	changed := append([]fubar.EpochRecord(nil), lines...)
	changed[1].Utility = math.Float64frombits(math.Float64bits(changed[1].Utility) ^ 1)
	if err := checkStream(ref, changed, 0); err == nil {
		t.Fatal("stream with a changed utility bit accepted")
	}
	withError := append(append([]byte(nil), body...), []byte(`{"error":"daemon: shutting down"}`+"\n")...)
	if _, err := parseStream(bytes.NewReader(withError), nil); err == nil {
		t.Fatal("stream ending in an error line accepted")
	}
	cut := body[:len(body)-10]
	if _, err := parseStream(bytes.NewReader(cut), nil); err == nil {
		t.Fatal("stream cut mid-line accepted")
	}
}

func TestSameEpochsRejectsReorderedReplay(t *testing.T) {
	ref, _ := smallStream(t)
	swapped := append([][]byte(nil), ref...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := sameEpochs(ref, swapped); err == nil {
		t.Fatal("reordered replay accepted")
	}
}

func TestGateRejectsChangedFingerprint(t *testing.T) {
	var base struct {
		Workloads map[string]map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		t.Fatal(err)
	}
	fp := base.Workloads["solve-cold"]
	if err := checkGate("solve-cold", fp); err != nil {
		t.Fatalf("baseline fingerprint rejected: %v", err)
	}
	changed := map[string]any{}
	for k, v := range fp {
		changed[k] = v
	}
	changed["steps"] = fp["steps"].(float64) + 1
	if err := checkGate("solve-cold", changed); err == nil {
		t.Fatal("changed step count passed the gate")
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	r := newRecorder()
	t0 := r.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := r.newID()
	root := r.add("op", tr, 0, at(0), at(100))
	run := r.add("run", tr, root, at(10), at(90))
	r.add("step", tr, run, at(10), at(50))
	r.add("step", tr, run, at(40), at(80)) // overlaps the first
	st := selfTimes(r.snapshot())
	if st["op"] != 20*time.Millisecond || st["run"] != 10*time.Millisecond || st["step"] != 80*time.Millisecond {
		t.Fatalf("self times %v", st)
	}
	if share := layersShare(r.snapshot(), 100*time.Millisecond); math.Abs(share-1.1) > 1e-9 {
		t.Fatalf("share %v, want 1.1 (overlapping children count twice)", share)
	}
	if checkLayers(1.1) == nil || checkLayers(1.0) != nil {
		t.Fatal("checkLayers tolerance wrong")
	}
}

// smokeShape shrinks every workload to scale-xs and a few epochs; its
// outcomes have no baseline, so the gate is off.
var smokeShape = shape{
	solvePreset:  "scale-xs",
	replayPreset: "scale-xs",
	replayEpochs: 3,
	daemonEpochs: 3,
	solvePool:    2,
	replayPool:   2,
	timelines:    2,
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// shape: the result line must be well formed, correct, and carry every
// metric the run's kind declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				t.Chdir(t.TempDir())
				var out bytes.Buffer
				code := runShape([]string{"--workload", name, "--seed", "4", "--seconds", "0.05", "--trace", trace}, &out, smokeShape)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v", d.name, m)
					}
				}
			})
		}
	}
}
