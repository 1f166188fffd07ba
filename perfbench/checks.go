package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"fubar"
)

// checkBundles verifies an allocation: every aggregate's bundle flows
// sum to its flow count, and every bundle's path is a valid loop-free
// walk from the aggregate's source to its destination.
func checkBundles(topo *fubar.Topology, mat *fubar.Matrix, bundles []fubar.Bundle) error {
	flows := make([]int, mat.NumAggregates())
	for i, bd := range bundles {
		if int(bd.Agg) < 0 || int(bd.Agg) >= len(flows) {
			return fmt.Errorf("bundle %d: aggregate %d out of range", i, bd.Agg)
		}
		if bd.Flows < 0 {
			return fmt.Errorf("bundle %d: negative flow count %d", i, bd.Flows)
		}
		agg := mat.Aggregate(bd.Agg)
		if err := (fubar.Path{Edges: bd.Edges}).Validate(topo.Graph(), agg.Src, agg.Dst); err != nil {
			return fmt.Errorf("bundle %d (aggregate %d): %w", i, bd.Agg, err)
		}
		flows[bd.Agg] += bd.Flows
	}
	for id, got := range flows {
		if want := mat.Aggregate(fubar.AggregateID(id)).Flows; got != want {
			return fmt.Errorf("aggregate %d: bundles carry %d flows, want %d", id, got, want)
		}
	}
	return nil
}

// sameOutcome compares the deterministic outcome of two solves: the
// utility bit for bit, the committed steps and the stop reason.
func sameOutcome(ref, got *fubar.Solution) error {
	if math.Float64bits(ref.Utility) != math.Float64bits(got.Utility) {
		return fmt.Errorf("utility %v (bits %x), reference %v (bits %x)",
			got.Utility, math.Float64bits(got.Utility), ref.Utility, math.Float64bits(ref.Utility))
	}
	if ref.Steps != got.Steps {
		return fmt.Errorf("%d steps, reference %d", got.Steps, ref.Steps)
	}
	if ref.Stop != got.Stop {
		return fmt.Errorf("stop %s, reference %s", got.Stop, ref.Stop)
	}
	return nil
}

// sameSolution is sameOutcome plus an identical allocation, bundle by
// bundle.
func sameSolution(ref, got *fubar.Solution) error {
	if err := sameOutcome(ref, got); err != nil {
		return err
	}
	if len(ref.Bundles) != len(got.Bundles) {
		return fmt.Errorf("%d bundles, reference %d", len(got.Bundles), len(ref.Bundles))
	}
	for i := range ref.Bundles {
		a, b := ref.Bundles[i], got.Bundles[i]
		if a.Agg != b.Agg || a.Flows != b.Flows || !(fubar.Path{Edges: a.Edges}).Equal(fubar.Path{Edges: b.Edges}) {
			return fmt.Errorf("bundle %d differs: %+v, reference %+v", i, b, a)
		}
	}
	return nil
}

// canonicalEpoch is an epoch record's JSON with its wall-clock field
// zeroed: the deterministic part two replays must agree on byte for
// byte.
func canonicalEpoch(er fubar.EpochRecord) ([]byte, error) {
	er.Elapsed = 0
	return json.Marshal(&er)
}

// sameEpochs compares a replay's canonical epochs against a reference.
func sameEpochs(ref, got [][]byte) error {
	for i := range min(len(ref), len(got)) {
		if !bytes.Equal(ref[i], got[i]) {
			return fmt.Errorf("epoch %d differs from the reference:\n got: %s\n ref: %s", i, got[i], ref[i])
		}
	}
	if len(ref) != len(got) {
		return fmt.Errorf("%d epochs, reference %d", len(got), len(ref))
	}
	return nil
}

// parseStream splits a JSONL replay body into epoch records, calling
// onLine (if set) as each line arrives. An {"error": ...} line or an
// undecodable line fails the stream.
func parseStream(body io.Reader, onLine func()) ([]fubar.EpochRecord, error) {
	var out []fubar.EpochRecord
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if onLine != nil {
			onLine()
		}
		var probe struct {
			Error *string `json:"error"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Error != nil {
			return out, fmt.Errorf("stream ended with error line: %s", *probe.Error)
		}
		var er fubar.EpochRecord
		if err := json.Unmarshal(raw, &er); err != nil {
			return out, fmt.Errorf("undecodable epoch line %q: %w", raw, err)
		}
		out = append(out, er)
	}
	return out, sc.Err()
}

// checkStream verifies one daemon replay stream against the in-process
// reference for its tenant: same epochs byte for byte once elapsed_ns
// is zeroed, and wire FlowMods equal to the tenant's
// fubar_ctrlplane_wire_flowmods_total growth over the stream.
func checkStream(ref [][]byte, lines []fubar.EpochRecord, wireDelta float64) error {
	got := make([][]byte, len(lines))
	var wire int
	for i, er := range lines {
		b, err := canonicalEpoch(er)
		if err != nil {
			return err
		}
		got[i] = b
		wire += er.WireFlowMods
	}
	if err := sameEpochs(ref, got); err != nil {
		return err
	}
	if float64(wire) != wireDelta {
		return fmt.Errorf("stream carried %d wire FlowMods, tenant metric grew by %g", wire, wireDelta)
	}
	return nil
}

// metricValue sums the samples of one metric family in a Prometheus
// text exposition (0 when absent).
func metricValue(body, name string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
