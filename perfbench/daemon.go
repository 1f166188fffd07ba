package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"fubar"
)

const (
	// daemonPreset and daemonScenario shape one closedloop-daemon
	// stream: a diurnal day on a scale-xs tenant. The controller kill
	// storm (diurnalstorm) would add failover resyncs, but its closed
	// loop fails about one replay in forty with "repair install:
	// controller counted N FlowMods, switches acked M" (late resync
	// acks after a failover), so it stays out until that race is fixed;
	// the control-plane probe still times one failover per traced run.
	daemonPreset   = "scale-xs"
	daemonScenario = "diurnal"
	// daemonReplicas is the controller replica count of every tenant.
	daemonReplicas = 3
	// daemonClients is how many closed-loop clients drive the daemon.
	// With two (nproc on a 2-CPU machine) the clients' closed-loop
	// replays and their 3-replica control planes contend for the CPUs,
	// and run-to-run spreads of epoch_ms_mean and epoch_ms_p90 reached
	// 26% and 36% over ten seeds; one client measures the daemon path
	// without that contention.
	daemonClients = 1
	// daemonSetupReps is how many daemons a run starts for setup_s: a
	// start takes milliseconds, so more repetitions steady the median.
	daemonSetupReps = 3 * setupReps
)

// clientSeed is daemon client i's fixed tenant seed.
func clientSeed(i int) int64 { return int64(i + 1) }

// daemonEnv is an in-process daemon on a loopback listener plus its
// keep-alive HTTP clients, one connection each.
type daemonEnv struct {
	srv     *fubar.DaemonServer
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client

	stopOnce sync.Once
	stopErr  error
}

// startDaemon starts a daemon whose worker cap equals the client count
// and connects each client once (GET /healthz).
func startDaemon(ctx context.Context, clients int) (*daemonEnv, error) {
	srv, err := fubar.NewDaemon(fubar.DaemonConfig{MaxWorkers: clients}, fubar.WithReplicas(daemonReplicas))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemonEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for range clients {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		d.clients = append(d.clients, c)
		if _, err := d.do(ctx, c, http.MethodGet, "/healthz", nil, http.StatusOK); err != nil {
			d.stop()
			return nil, fmt.Errorf("connect client: %w", err)
		}
	}
	return d, nil
}

// warmUp has every client create and delete one tenant, so the first
// measured cycle finds the daemon's request paths warm.
func (d *daemonEnv) warmUp(ctx context.Context) error {
	for i, c := range d.clients {
		id := fmt.Sprintf("warmup-%d", i)
		req := fubar.CreateTenantRequest{ID: id, Preset: daemonPreset, Seed: clientSeed(i), Workers: 1}
		if _, err := d.do(ctx, c, http.MethodPost, "/v1/tenants", req, http.StatusCreated); err != nil {
			return fmt.Errorf("warm-up create: %w", err)
		}
		if _, err := d.do(ctx, c, http.MethodDelete, "/v1/tenants/"+id, nil, http.StatusNoContent); err != nil {
			return fmt.Errorf("warm-up delete: %w", err)
		}
	}
	return nil
}

// stop drains the daemon, closes the listener and the clients'
// connections, and waits for the server goroutine to return. Calls
// after the first return the first call's error.
func (d *daemonEnv) stop() error {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := d.srv.Shutdown(ctx)
		if e := d.hs.Shutdown(ctx); err == nil {
			err = e
		}
		if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
			err = e
		}
		for _, c := range d.clients {
			c.CloseIdleConnections()
		}
		d.stopErr = err
	})
	return d.stopErr
}

// do sends one request and returns the response body, failing on any
// status but want.
func (d *daemonEnv) do(ctx context.Context, c *http.Client, method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, raw)
	}
	return raw, nil
}

// stream GETs a closed-loop replay and returns its decoded lines with
// each line's arrival time.
func (d *daemonEnv) stream(ctx context.Context, c *http.Client, tenant string, scenarioSeed int64, scenarioName string, epochs int) ([]fubar.EpochRecord, []time.Time, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/replay?scenario=%s&epochs=%d&seed=%d&mode=closed", d.base, tenant, scenarioName, epochs, scenarioSeed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("replay: status %d: %s", resp.StatusCode, raw)
	}
	var times []time.Time
	lines, err := parseStream(resp.Body, func() { times = append(times, time.Now()) })
	return lines, times, err
}

// scrape reads one metric family from a /metrics path over client c.
func (d *daemonEnv) scrape(ctx context.Context, c *http.Client, path, name string) (float64, error) {
	body, err := d.do(ctx, c, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	return metricValue(string(body), name), nil
}

// closedLoopReference replays the scenario in-process on a fresh
// session over the tenant's instance — what the daemon must stream for
// that tenant — returning canonical epochs, records and the warm epoch
// gaps in ms.
func closedLoopReference(ctx context.Context, preset string, instSeed int64, sc fubar.Scenario, workers int) ([][]byte, []fubar.EpochRecord, []float64, error) {
	topo, mat, err := fubar.ScaleInstance(preset, instSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(workers), fubar.WithReplicas(daemonReplicas))
	if err != nil {
		return nil, nil, nil, err
	}
	defer s.Close()
	var lines [][]byte
	var recs []fubar.EpochRecord
	var gaps []float64
	last := time.Now()
	for er, err := range s.ReplayClosedLoop(ctx, sc) {
		at := time.Now()
		if err != nil {
			return nil, nil, nil, err
		}
		if er.Epoch > 0 {
			gaps = append(gaps, ms(at.Sub(last)))
		}
		line, err := canonicalEpoch(er)
		if err != nil {
			return nil, nil, nil, err
		}
		lines = append(lines, line)
		recs = append(recs, er)
		last = time.Now()
	}
	return lines, recs, gaps, nil
}

// daemonObs gathers a daemon loop's samples, merged over clients.
type daemonObs struct {
	create []float64 // POST round trip, ms
	first  []float64 // POST to first line, ms
	solve  []float64 // epoch 0 elapsed_ns, s
	gaps   []float64 // gaps between JSONL lines, ms
	epochs []timedEpoch
	busy   time.Duration // loop wall time × clients
	errs   []error
}

func (o *daemonObs) merge(p *daemonObs) {
	o.create = append(o.create, p.create...)
	o.first = append(o.first, p.first...)
	o.solve = append(o.solve, p.solve...)
	o.gaps = append(o.gaps, p.gaps...)
	o.epochs = append(o.epochs, p.epochs...)
	o.errs = append(o.errs, p.errs...)
}

// runClosedLoopDaemon drives daemonClients clients against an in-process
// daemon: each cycles create → closed-loop replay stream → metrics
// scrape → delete on its own scale-xs tenant, waiting for every reply.
func runClosedLoopDaemon(b *bench) error {
	sh := b.shape
	clients := daemonClients
	scs := make([]fubar.Scenario, sh.timelines)
	scSeeds := poolSeeds(b.seed, sh.timelines)
	for k := range scs {
		var err error
		if scs[k], err = fubar.ScenarioByName(daemonScenario, scSeeds[k], sh.daemonEpochs); err != nil {
			return err
		}
	}
	tenantSeeds := make([]int64, clients)
	for i := range tenantSeeds {
		tenantSeeds[i] = clientSeed(i)
	}
	b.seeds["tenants"] = fmt.Sprintf("%s at seeds %v, workers 1, %d replicas", daemonPreset, tenantSeeds, daemonReplicas)
	b.seeds["scenarios"] = fmt.Sprintf("%s seeds %v, %d epochs", daemonScenario, scSeeds, sh.daemonEpochs)

	var env *daemonEnv
	var err error
	setups := make([]float64, 0, daemonSetupReps)
	for i := range daemonSetupReps {
		t0 := time.Now()
		if env, err = startDaemon(b.ctx, clients); err != nil {
			return err
		}
		if err := env.warmUp(b.ctx); err != nil {
			env.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < daemonSetupReps-1 {
			if err := env.stop(); err != nil {
				return fmt.Errorf("stop set-up daemon: %w", err)
			}
		}
	}
	b.set("setup_s", median(setups), "s", len(setups))
	defer env.stop()

	// refs[i][k] is client i's reference stream for timeline k; each
	// client's references run on their own goroutine, as its cycles do.
	refs := make([][][][]byte, clients)
	recs := make([][][]fubar.EpochRecord, clients)
	refErrs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sc := range scs {
				lines, rs, _, err := closedLoopReference(b.ctx, daemonPreset, clientSeed(i), sc, 1)
				if err != nil {
					refErrs[i] = fmt.Errorf("reference replay for tenant seed %d: %w", clientSeed(i), err)
					return
				}
				refs[i] = append(refs[i], lines)
				recs[i] = append(recs[i], rs)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(refErrs...); err != nil {
		return err
	}
	var util, mods []float64
	for _, perTimeline := range recs {
		for _, rs := range perTimeline {
			for _, er := range rs {
				util = append(util, er.TrueUtility)
				mods = append(mods, float64(er.WireFlowMods))
			}
		}
	}
	if sh.gate {
		b.op("deterministic gate", gateDaemon(b, scs[0], recs))
	}
	waits0, err := env.scrape(b.ctx, env.clients[0], "/metrics", "fubar_daemon_worker_waits_total")
	if err != nil {
		return err
	}
	if !b.trace {
		o := daemonLoop(b, env, scs, refs, b.seconds, nil)
		b.set("solve_s_p50", median(o.solve), "s", len(o.solve))
		b.set("epoch_ms_mean", mean(o.gaps), "ms", len(o.gaps))
		b.set("epoch_ms_p90", quantile(o.gaps, 0.90), "ms", len(o.gaps))
		b.set("first_epoch_ms_p50", median(o.first), "ms", len(o.first))
		b.set("utility_mean", mean(util), "utility", len(util))
		b.set("flowmods_per_epoch", mean(mods), "count", len(mods))
		return nil
	}

	untraced := daemonLoop(b, env, scs, refs, b.seconds/2, nil)
	n0 := b.spans.count()
	traced := daemonLoop(b, env, scs, refs, b.seconds/2, b.spans)
	share := layersShare(b.spans.since(n0), traced.busy)
	b.op("traced layers add up", checkLayers(share))
	b.set("bench.layers_sum_share", share, "ratio", 1)
	b.set("bench.trace_overhead_pct", (mean(traced.gaps)/mean(untraced.gaps)-1)*100, "%", len(traced.gaps)+len(untraced.gaps))
	waits1, err := env.scrape(b.ctx, env.clients[0], "/metrics", "fubar_daemon_worker_waits_total")
	if err != nil {
		return err
	}
	obs := &daemonLayerObs{create: append(untraced.create, traced.create...), waits: waits1 - waits0}
	if err := env.stop(); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	topo, mat, err := fubar.ScaleInstance(daemonPreset, clientSeed(0))
	if err != nil {
		return err
	}
	return probeLayers(b, layerInput{topo: topo, mat: mat, epochs: traced.epochs, daemon: obs})
}

// daemonLoop runs rounds until dur has passed (at least one): in a
// round every client, concurrently, cycles once through each timeline
// in order, and the round ends when all clients have. Every client
// thus completes the same cycles, so every run weighs tenants and
// timelines equally and the clients contend for the CPUs throughout.
func daemonLoop(b *bench, env *daemonEnv, scs []fubar.Scenario, refs [][][][]byte, dur time.Duration, rec *recorder) *daemonObs {
	end := deadline(dur)
	per := make([]*daemonObs, len(env.clients))
	for i := range per {
		per[i] = &daemonObs{}
	}
	start := time.Now()
	done := make([]time.Time, len(env.clients))
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		var wg sync.WaitGroup
		for i, c := range env.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, sc := range scs {
					id := fmt.Sprintf("c%d-%d-%d", i, round, k)
					per[i].errs = append(per[i].errs, cycle(b.ctx, env, c, id, clientSeed(i), sc, refs[i][k], per[i], rec))
				}
				done[i] = time.Now()
			}()
		}
		wg.Wait()
		// A client that finished its round early waits for the others.
		roundEnd := time.Now()
		for _, t := range done {
			rec.add("bench.round_wait", rec.newID(), 0, t, roundEnd)
		}
	}
	all := &daemonObs{busy: time.Since(start) * time.Duration(len(env.clients))}
	for _, p := range per {
		all.merge(p)
	}
	for _, err := range all.errs {
		b.op("daemon tenant cycle", err)
	}
	return all
}

// cycle runs one tenant's create → stream → metrics → delete and
// checks the stream against the reference.
func cycle(ctx context.Context, env *daemonEnv, c *http.Client, id string, seed int64, sc fubar.Scenario, ref [][]byte, o *daemonObs, rec *recorder) error {
	tr := rec.newID()
	t0 := time.Now()
	req := fubar.CreateTenantRequest{ID: id, Preset: daemonPreset, Seed: seed, Workers: 1}
	if _, err := env.do(ctx, c, http.MethodPost, "/v1/tenants", req, http.StatusCreated); err != nil {
		return err
	}
	t1 := time.Now()
	lines, times, streamErr := env.stream(ctx, c, id, sc.Seed, daemonScenario, sc.Epochs)
	t2 := time.Now()
	wire, metricsErr := env.scrape(ctx, c, "/v1/tenants/"+id+"/metrics", "fubar_ctrlplane_wire_flowmods_total")
	t3 := time.Now()
	_, deleteErr := env.do(ctx, c, http.MethodDelete, "/v1/tenants/"+id, nil, http.StatusNoContent)
	t4 := time.Now()
	err := errors.Join(streamErr, metricsErr, deleteErr)
	if err == nil {
		err = checkStream(ref, lines, wire)
	}
	t5 := time.Now()

	o.create = append(o.create, ms(t1.Sub(t0)))
	if len(times) > 0 {
		o.first = append(o.first, ms(times[0].Sub(t0)))
	}
	for k := range lines {
		if k == 0 {
			o.solve = append(o.solve, lines[0].Elapsed.Seconds())
			continue
		}
		gap := times[k].Sub(times[k-1])
		o.gaps = append(o.gaps, ms(gap))
		o.epochs = append(o.epochs, timedEpoch{gap: gap, rec: lines[k]})
	}
	if rec != nil {
		root := rec.add("bench.op", tr, 0, t0, t5)
		rec.add("daemon.create", tr, root, t0, t1)
		st := rec.add("daemon.stream", tr, root, t1, t2)
		prev := t1
		for k, at := range times {
			ep := rec.add("daemon.epoch", tr, st, prev, at)
			if k < len(lines) {
				rec.add("core.Run", tr, ep, maxTime(prev, at.Add(-lines[k].Elapsed)), at)
			}
			prev = at
		}
		rec.add("daemon.metrics", tr, root, t2, t3)
		rec.add("daemon.delete", tr, root, t3, t4)
	}
	return err
}

// gateTenants is how many client tenant seeds the daemon gate pins,
// independent of the machine's client count.
const gateTenants = 2

// gateDaemon compares the closed-loop references of the gate timeline
// (timeline 0, scenario seed gateSeed) for the first gateTenants tenant
// seeds with the checked-in baseline, replaying any tenant this
// machine has no client for. Every stream is checked against its
// reference, so the gate pins the daemon's output too.
func gateDaemon(b *bench, sc fubar.Scenario, recs [][][]fubar.EpochRecord) error {
	fp := map[string]any{}
	for i := range gateTenants {
		var rs []fubar.EpochRecord
		if i < len(recs) {
			rs = recs[i][0]
		} else {
			var err error
			if _, rs, _, err = closedLoopReference(b.ctx, daemonPreset, clientSeed(i), sc, 1); err != nil {
				return err
			}
		}
		f, err := replayFingerprint(rs)
		if err != nil {
			return err
		}
		fp[fmt.Sprintf("tenant_seed_%d", clientSeed(i))] = f
	}
	return checkGate("closedloop-daemon", fp)
}
