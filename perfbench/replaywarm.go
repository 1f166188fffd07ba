package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"fubar"
)

// timedEpoch is one warm epoch as a caller saw it: the time since the
// previous epoch arrived, and the record.
type timedEpoch struct {
	gap time.Duration
	rec fubar.EpochRecord
}

// replayObs gathers a replay loop's samples.
type replayObs struct {
	solve  []float64 // epoch 0 core.Run wall time, s
	first  []float64 // Replay call to epoch 0, ms
	gaps   []float64 // warm epoch gaps, ms
	epochs []timedEpoch
}

// replayMember is one relabeled instance of a run's pool with its
// timeline, session and, once replayed, its reference epochs.
type replayMember struct {
	topo *fubar.Topology
	mat  *fubar.Matrix
	sc   fubar.Scenario
	s    *fubar.Session
	ref  [][]byte
	recs []fubar.EpochRecord
}

// replayScenario is the timeline replay-warm replays: one diurnal day.
const replayScenario = "diurnal"

// runReplayWarm times repeated warm-start Session.Replay days of the
// diurnal scenario at Workers = nproc, cycling over a pool of relabeled
// scale-s instances, each with its own timeline, drawn from the seed. Each member's first replay is
// its reference and warms the process; it is not timed. Every timed
// replay must repeat its member's reference exactly.
func runReplayWarm(b *bench) error {
	sh := b.shape
	seeds := poolSeeds(b.seed, sh.replayPool)
	b.seeds["instances"] = fmt.Sprintf("%s@%d relabeled by seeds %v", sh.replayPreset, instanceSeed, seeds)
	b.seeds["scenarios"] = fmt.Sprintf("%s seeds %v (one per instance), %d epochs", replayScenario, seeds, sh.replayEpochs)
	var err error
	// Set-up covers each member's instance, session and cold epoch 0.
	var pool []*replayMember
	setups := make([]float64, 0, setupReps)
	for range setupReps {
		t0 := time.Now()
		pool = pool[:0]
		for k := range sh.replayPool {
			m := &replayMember{}
			seed := seeds[k]
			if m.topo, m.mat, err = relabeledInstance(sh.replayPreset, seed); err != nil {
				return err
			}
			if m.sc, err = fubar.ScenarioByName(replayScenario, seed, sh.replayEpochs); err != nil {
				return err
			}
			if m.s, err = fubar.NewSession(m.topo, m.mat, fubar.WithWorkers(b.workers)); err != nil {
				return err
			}
			for _, err := range m.s.Replay(b.ctx, m.sc) {
				if err != nil {
					return fmt.Errorf("set-up epoch 0: %w", err)
				}
				break
			}
			pool = append(pool, m)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setups), "s", len(setups))

	var util, mods []float64
	for _, m := range pool {
		if m.ref, m.recs, err = replayCanonical(b, m.s, m.sc); err != nil {
			return fmt.Errorf("reference replay: %w", err)
		}
		for _, er := range m.recs {
			util = append(util, er.Utility)
			mods = append(mods, float64(er.FlowMods))
		}
	}
	if sh.gate {
		b.op("deterministic gate", gateReplayWarm(pool[0].recs))
	}

	if !b.trace {
		o := replayLoop(b, pool, b.seconds, nil)
		b.set("solve_s_p50", median(o.solve), "s", len(o.solve))
		b.set("epoch_ms_mean", mean(o.gaps), "ms", len(o.gaps))
		b.set("epoch_ms_p90", quantile(o.gaps, 0.90), "ms", len(o.gaps))
		b.set("first_epoch_ms_p50", median(o.first), "ms", len(o.first))
		b.set("utility_mean", mean(util), "utility", len(util))
		b.set("flowmods_per_epoch", mean(mods), "count", len(mods))
		return nil
	}

	untraced := replayLoop(b, pool, b.seconds/2, nil)
	n0 := b.spans.count()
	t0 := time.Now()
	traced := replayLoop(b, pool, b.seconds/2, b.spans)
	share := layersShare(b.spans.since(n0), time.Since(t0))
	b.op("traced layers add up", checkLayers(share))
	b.set("bench.layers_sum_share", share, "ratio", 1)
	b.set("bench.trace_overhead_pct", (mean(traced.gaps)/mean(untraced.gaps)-1)*100, "%", len(traced.gaps)+len(untraced.gaps))
	return probeLayers(b, layerInput{topo: pool[0].topo, mat: pool[0].mat, epochs: traced.epochs})
}

// replayCanonical runs one replay and returns its canonical epochs and
// records.
func replayCanonical(b *bench, s *fubar.Session, sc fubar.Scenario) ([][]byte, []fubar.EpochRecord, error) {
	var lines [][]byte
	var recs []fubar.EpochRecord
	for er, err := range s.Replay(b.ctx, sc) {
		if err != nil {
			return nil, nil, err
		}
		line, err := canonicalEpoch(er)
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, line)
		recs = append(recs, er)
	}
	return lines, recs, nil
}

// replayLoop runs rounds of replays, one per pool member, until dur has
// passed (at least one round; rounds always complete), checking every
// replay against its member's reference epochs. With a recorder it records one trace per replay: the
// operation span around a scenario.Replay span holding one
// scenario.epoch span per epoch, each with a core.Run child of the
// epoch's Elapsed placed at the epoch's end, and the benchmark's own
// per-epoch bookkeeping (bench.consume).
func replayLoop(b *bench, pool []*replayMember, dur time.Duration, rec *recorder) replayObs {
	var o replayObs
	end := deadline(dur)
	for i := 0; i == 0 || i%len(pool) != 0 || time.Now().Before(end); i++ {
		m := pool[i%len(pool)]
		tr := rec.newID()
		replaySpan := rec.newID() // recorded once the replay's end is known
		t0 := time.Now()
		last := t0
		var got [][]byte
		var err error
		for er, e := range m.s.Replay(b.ctx, m.sc) {
			at := time.Now()
			if e != nil {
				err = e
				break
			}
			gap := at.Sub(last)
			if er.Epoch == 0 {
				o.first = append(o.first, ms(gap))
				o.solve = append(o.solve, er.Elapsed.Seconds())
			} else {
				o.gaps = append(o.gaps, ms(gap))
				o.epochs = append(o.epochs, timedEpoch{gap: gap, rec: er})
			}
			line, e := canonicalEpoch(er)
			if e != nil {
				err = e
				break
			}
			got = append(got, line)
			done := time.Now()
			if rec != nil {
				ep := rec.add("scenario.epoch", tr, replaySpan, last, at)
				rec.add("core.Run", tr, ep, maxTime(last, at.Add(-er.Elapsed)), at)
				rec.add("bench.consume", tr, replaySpan, at, done)
			}
			last = done
		}
		t1 := time.Now()
		if err == nil {
			err = sameEpochs(m.ref, got)
		}
		b.op("warm replay", err)
		if rec != nil {
			root := rec.add("bench.op", tr, 0, t0, time.Now())
			rec.addWithID(replaySpan, "scenario.Replay", tr, root, t0, t1)
		}
	}
	return o
}

// maxTime returns the later of two instants.
func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// epochDigest hashes a replay's canonical epochs.
func epochDigest(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replayFingerprint is the exact outcome of one replay.
func replayFingerprint(recs []fubar.EpochRecord) (map[string]any, error) {
	var steps, flowMods, moved, wire, rules, resync int
	var util, trueUtil float64
	lines := make([][]byte, 0, len(recs))
	for _, er := range recs {
		steps += er.Steps
		flowMods += er.FlowMods
		moved += er.RepairMovedFlows
		wire += er.WireFlowMods
		rules += er.WireRules
		resync += er.ResyncFlowMods
		util += er.Utility
		trueUtil += er.TrueUtility
		line, err := canonicalEpoch(er)
		if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	return map[string]any{
		"epochs":             len(recs),
		"steps":              steps,
		"flowmods":           flowMods,
		"repair_moved_flows": moved,
		"wire_flowmods":      wire,
		"wire_rules":         rules,
		"resync_flowmods":    resync,
		"utility_sum_bits":   utilityBits(util),
		"true_utility_bits":  utilityBits(trueUtil),
		"digest":             epochDigest(lines),
	}, nil
}

// gateReplayWarm compares the gate member's reference replay with the
// checked-in baseline.
func gateReplayWarm(recs []fubar.EpochRecord) error {
	fp, err := replayFingerprint(recs)
	if err != nil {
		return err
	}
	return checkGate("replay-warm", fp)
}
