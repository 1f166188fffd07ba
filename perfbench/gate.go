package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
)

// gateSeed is the seed whose deterministic outcome every run re-derives
// and compares, with zero tolerance, against baseline.json: steps,
// candidates, base captures and rebases, wire FlowMods, rules and
// resyncs, and utilities bit for bit. A behaviour change then fails the
// benchmark instead of hiding in timing noise; a change that alters
// behaviour on purpose updates baseline.json in its own commit.
const gateSeed = 1

// baselineJSON holds the gate fingerprints, recorded on the GOARCH it
// names (floating-point results may differ on another architecture,
// where the gate is skipped).
//
//go:embed baseline.json
var baselineJSON []byte

// checkGate compares a workload's gate fingerprint with the baseline.
func checkGate(workload string, got map[string]any) error {
	var base struct {
		GOARCH    string                    `json:"goarch"`
		Workloads map[string]map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return fmt.Errorf("baseline.json: %w", err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if runtime.GOARCH != base.GOARCH {
		fmt.Printf("gate skipped: baseline recorded on %s, running on %s; fingerprint %s\n", base.GOARCH, runtime.GOARCH, gotJSON)
		return nil
	}
	var norm map[string]any
	if err := json.Unmarshal(gotJSON, &norm); err != nil {
		return err
	}
	want, ok := base.Workloads[workload]
	if !ok {
		return fmt.Errorf("baseline.json has no %s fingerprint; this run's is %s", workload, gotJSON)
	}
	if !reflect.DeepEqual(norm, want) {
		wantJSON, _ := json.Marshal(want)
		return fmt.Errorf("seed %d outcome changed:\n got      %s\n baseline %s", gateSeed, gotJSON, wantJSON)
	}
	return nil
}

// utilityBits renders a utility's exact IEEE-754 bits.
func utilityBits(u float64) string { return fmt.Sprintf("%016x", math.Float64bits(u)) }
