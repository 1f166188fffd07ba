package fubar

import (
	"context"
	"io"
	"net/http"

	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/classify"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/measure"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/netsim"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// Quantities.
type (
	// Bandwidth is a data rate in kilobits per second.
	Bandwidth = unit.Bandwidth
	// Delay is a one-way propagation delay in milliseconds.
	Delay = unit.Delay
)

// Unit constants.
const (
	Kbps        = unit.Kbps
	Mbps        = unit.Mbps
	Gbps        = unit.Gbps
	Millisecond = unit.Millisecond
	Second      = unit.Second
)

// ParseBandwidth parses "100Mbps", "50kbps", "1.5Gbps" or bare kbps.
func ParseBandwidth(s string) (Bandwidth, error) { return unit.ParseBandwidth(s) }

// ParseDelay parses "5ms", "1.2s" or bare milliseconds.
func ParseDelay(s string) (Delay, error) { return unit.ParseDelay(s) }

// Topologies.
type (
	// Topology is a POP-level network: named nodes joined by
	// bidirectional capacity+delay links.
	Topology = topology.Topology
	// TopologyBuilder accumulates nodes and links.
	TopologyBuilder = topology.Builder
	// NodeID identifies a topology node.
	NodeID = topology.NodeID
	// LinkID identifies a directed link.
	LinkID = topology.LinkID
	// Link is one directed link.
	Link = topology.Link
	// SRLG is a shared-risk link group: links that fail together.
	// Declare groups with Topology.WithSRLGs; scenario SRLG events and
	// the closed-loop replay consume them.
	SRLG = topology.SRLG
	// Path is an edge sequence through the topology's graph.
	Path = graph.Path
)

// NewTopology starts building a named topology.
func NewTopology(name string) *TopologyBuilder { return topology.NewBuilder(name) }

// HurricaneElectric builds the 31-POP / 56-link substitute for Hurricane
// Electric's 2014 core (§3) with a uniform link capacity.
func HurricaneElectric(capacity Bandwidth) (*Topology, error) {
	return topology.HurricaneElectric(capacity)
}

// RingTopology generates an n-node ring with extra random chords.
func RingTopology(n, chords int, capacity Bandwidth, seed int64) (*Topology, error) {
	return topology.Ring(n, chords, capacity, seed)
}

// GridTopology generates a w x h Manhattan mesh.
func GridTopology(w, h int, capacity Bandwidth) (*Topology, error) {
	return topology.Grid(w, h, capacity)
}

// WaxmanTopology generates a geographic random topology.
func WaxmanTopology(n int, alpha, beta float64, capacity Bandwidth, maxDelay Delay, seed int64) (*Topology, error) {
	return topology.Waxman(n, alpha, beta, capacity, maxDelay, seed)
}

// DumbbellTopology generates the classic single-bottleneck topology.
func DumbbellTopology(leaf int, capacity, bottleneck Bandwidth) (*Topology, error) {
	return topology.Dumbbell(leaf, capacity, bottleneck)
}

// ParseTopology reads the text topology format.
func ParseTopology(r io.Reader) (*Topology, error) { return topology.Parse(r) }

// WriteTopology serializes a topology in the text format.
func WriteTopology(w io.Writer, t *Topology) error { return topology.Write(w, t) }

// Traffic.
type (
	// Matrix is a traffic matrix bound to a topology.
	Matrix = traffic.Matrix
	// Aggregate is a set of flows sharing source, destination and class.
	Aggregate = traffic.Aggregate
	// AggregateID indexes an aggregate within its matrix.
	AggregateID = traffic.AggregateID
	// GenConfig parameterizes random matrix generation (§3).
	GenConfig = traffic.GenConfig
)

// NewMatrix builds a matrix from explicit aggregates.
func NewMatrix(topo *Topology, aggs []Aggregate) (*Matrix, error) {
	return traffic.NewMatrix(topo, aggs)
}

// DefaultGenConfig mirrors the paper's §3 workload for a seed.
func DefaultGenConfig(seed int64) GenConfig { return traffic.DefaultGenConfig(seed) }

// GenerateTraffic draws a random all-pairs matrix.
func GenerateTraffic(topo *Topology, cfg GenConfig) (*Matrix, error) {
	return traffic.Generate(topo, cfg)
}

// Utility.
type (
	// UtilityFunction maps per-flow bandwidth and path delay to [0,1].
	UtilityFunction = utility.Function
	// Curve is a piecewise-linear utility component.
	Curve = utility.Curve
	// CurvePoint is one vertex of a Curve.
	CurvePoint = utility.Point
	// Class labels a traffic class.
	Class = utility.Class
)

// Traffic classes (§3).
const (
	ClassRealTime  = utility.ClassRealTime
	ClassBulk      = utility.ClassBulk
	ClassLargeFile = utility.ClassLargeFile
)

// RealTime returns the Figure 1 interactive utility function.
func RealTime() UtilityFunction { return utility.RealTime() }

// Bulk returns the Figure 2 bulk-transfer utility function.
func Bulk() UtilityFunction { return utility.Bulk() }

// LargeFile returns the §3 large-transfer function with the given peak.
func LargeFile(peak Bandwidth) UtilityFunction { return utility.LargeFile(peak) }

// NewCurve builds a piecewise-linear component curve.
func NewCurve(pts ...CurvePoint) (Curve, error) { return utility.NewCurve(pts...) }

// NewUtilityFunction composes bandwidth and delay components.
func NewUtilityFunction(name string, bandwidth, delay Curve) (UtilityFunction, error) {
	return utility.NewFunction(name, bandwidth, delay)
}

// Model.
type (
	// Model evaluates the §2.3 TCP-like traffic model. It is immutable
	// after NewModel; concurrent evaluators each take a ModelEval arena
	// via Model.NewEval.
	Model = flowmodel.Model
	// ModelEval is a reusable evaluation arena; one goroutine per arena
	// may Evaluate concurrently over a shared Model.
	ModelEval = flowmodel.Eval
	// Bundle is a group of one aggregate's flows on one path.
	Bundle = flowmodel.Bundle
	// ModelResult is one model evaluation.
	ModelResult = flowmodel.Result
)

// NewModel builds a traffic model over a topology and matrix.
func NewModel(topo *Topology, mat *Matrix) (*Model, error) { return flowmodel.New(topo, mat) }

// NewBundle builds a bundle over a path, precomputing its delay.
func NewBundle(topo *Topology, agg AggregateID, flows int, path Path) Bundle {
	return flowmodel.NewBundle(topo, agg, flows, path)
}

// Optimizer.
type (
	// Options tunes the optimizer.
	Options = core.Options
	// Solution is an optimization outcome.
	Solution = core.Solution
	// Snapshot is a progress report during optimization.
	Snapshot = core.Snapshot
	// StopReason explains optimizer termination.
	StopReason = core.StopReason
	// Policy restricts acceptable paths (§2.4 "policy compliant").
	Policy = pathgen.Policy
	// AltMode restricts the alternative-path trio (ablations).
	AltMode = core.AltMode
	// DeltaMode selects the candidate-evaluation strategy
	// (Options.DeltaEval).
	DeltaMode = core.DeltaMode
	// DeltaStats counts incremental-evaluation activity
	// (Solution.Delta).
	DeltaStats = flowmodel.DeltaStats
	// ModelBase is a captured base evaluation for ModelEval.EvaluateDelta.
	ModelBase = flowmodel.Base
	// BaseStats counts how the optimizer obtained each step's delta base
	// (Solution.Base) — the persistent-base bookkeeping.
	BaseStats = core.BaseStats
	// SolutionSummary is the JSON shape a Solution marshals to — the
	// headline numbers without the bundle list (Solution.Summary).
	SolutionSummary = core.SolutionSummary
)

// Stop reasons.
const (
	StopNoCongestion = core.StopNoCongestion
	StopLocalOptimum = core.StopLocalOptimum
	StopMaxSteps     = core.StopMaxSteps
	StopDeadline     = core.StopDeadline
	// StopCancelled reports a cancelled context: the partial solution is
	// returned, deterministic up to the cancellation point.
	StopCancelled = core.StopCancelled
)

// Alternative-path modes.
const (
	AltAll           = core.AltAll
	AltGlobalOnly    = core.AltGlobalOnly
	AltLocalOnly     = core.AltLocalOnly
	AltLinkLocalOnly = core.AltLinkLocalOnly
)

// Candidate-evaluation strategies (Options.DeltaEval).
const (
	// DeltaAuto (default) evaluates candidate moves incrementally against
	// a per-step base snapshot — bit-identical to full evaluation, cost
	// proportional to the move's affected sub-problem.
	DeltaAuto = core.DeltaAuto
	// DeltaOff runs a full water-filling per candidate.
	DeltaOff = core.DeltaOff
)

// Warm-start repair.
type (
	// RepairStats summarizes what a warm-start repair changed.
	RepairStats = core.RepairStats
)

// RepairWarmStart makes an installed allocation a valid warm start for a
// new (topology, matrix) instance after demand or topology events:
// bundles on forbidden or vanished links are dropped and their flows
// rehomed, per-aggregate totals are rescaled to the new matrix, and
// uncovered aggregates fall back to their lowest-delay compliant path.
// maxPaths must match the consuming run's Options.MaxPathsPerAggregate
// (0 = default).
func RepairWarmStart(topo *Topology, mat *Matrix, bundles []Bundle, policy Policy, maxPaths int) ([]Bundle, RepairStats, error) {
	return core.RepairWarmStart(topo, mat, bundles, policy, maxPaths)
}

// ForbidLinks builds a Policy.ForbiddenLinks mask marking each given
// physical link in both directions.
func ForbidLinks(topo *Topology, links ...LinkID) []bool {
	return pathgen.ForbidLinks(topo, links...)
}

// Baselines.
type (
	// BaselineOutcome is a baseline allocation plus its evaluation.
	BaselineOutcome = baseline.Outcome
	// UpperBoundResult is the §3 isolation bound.
	UpperBoundResult = baseline.UpperBoundResult
)

// ShortestPathRouting evaluates the paper's shortest-path reference.
func ShortestPathRouting(model *Model, policy Policy) (*BaselineOutcome, error) {
	return baseline.ShortestPath(model, policy)
}

// UpperBound computes the §3 isolation upper bound.
func UpperBound(topo *Topology, mat *Matrix, policy Policy) (*UpperBoundResult, error) {
	return baseline.UpperBound(topo, mat, policy)
}

// ECMP splits flows across equal-lowest-delay paths (RFC 2992 style).
func ECMP(model *Model, policy Policy, maxPaths int) (*BaselineOutcome, error) {
	return baseline.ECMP(model, policy, maxPaths)
}

// GreedyCSPF is the min-max-utilization CSPF-style comparator.
func GreedyCSPF(model *Model, policy Policy, k int) (*BaselineOutcome, error) {
	return baseline.GreedyCSPF(model, policy, k)
}

// Experiments.
type (
	// ExperimentConfig describes one §3 evaluation run.
	ExperimentConfig = experiment.Config
	// ExperimentResult carries the series and distributions a figure
	// plots.
	ExperimentResult = experiment.RunResult
	// RepeatabilityResult is Fig 7's distribution data.
	RepeatabilityResult = experiment.RepeatabilityResult
)

// Provisioned returns Fig 3's configuration (100 Mbps links).
func Provisioned(seed int64) ExperimentConfig { return experiment.Provisioned(seed) }

// Underprovisioned returns Fig 4's configuration (75 Mbps links).
func Underprovisioned(seed int64) ExperimentConfig { return experiment.Underprovisioned(seed) }

// Prioritized returns Fig 5's configuration (large flows weighted up).
func Prioritized(seed int64) ExperimentConfig { return experiment.Prioritized(seed) }

// RelaxedDelay returns Fig 6's configuration (small-flow delay doubled).
func RelaxedDelay(seed int64) ExperimentConfig { return experiment.RelaxedDelay(seed) }

// RunExperiment executes a configured evaluation run.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(context.Background(), cfg)
}

// RunExperimentContext executes a configured evaluation run under ctx
// (cancellation and deadlines reach the optimizer at candidate-batch
// granularity).
func RunExperimentContext(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(ctx, cfg)
}

// ExperimentInstance materializes a configuration's topology and traffic
// matrix without optimizing — e.g. as epoch 0 of a scenario replay.
func ExperimentInstance(cfg ExperimentConfig) (*Topology, *Matrix, error) {
	return experiment.Instance(cfg)
}

// Repeatability reruns a configuration across consecutive seeds (Fig 7),
// parallelized across Options.Workers with per-run arenas; the
// distributions are identical at any worker count.
func Repeatability(base ExperimentConfig, runs int) (*RepeatabilityResult, error) {
	return experiment.Repeatability(context.Background(), base, runs)
}

// Scenario replay (time-varying traffic and topology through repeated
// warm-started re-optimization).
type (
	// Scenario is a seeded timeline of demand/topology events replayed
	// over a start instance.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timeline entry.
	ScenarioEvent = scenario.Event
	// ScenarioEventKind enumerates the event types.
	ScenarioEventKind = scenario.EventKind
	// ScenarioOptions tunes a replay.
	ScenarioOptions = scenario.Options
	// ScenarioResult is a completed replay (one EpochRecord per epoch).
	ScenarioResult = scenario.Result
	// EpochRecord is one epoch of a replay: stale vs re-optimized
	// utility, optimizer effort and routing churn.
	EpochRecord = scenario.EpochResult
)

// Scenario event kinds.
const (
	EventDemandScale      = scenario.DemandScale
	EventDemandChurn      = scenario.DemandChurn
	EventAggregateArrive  = scenario.AggregateArrive
	EventAggregateDepart  = scenario.AggregateDepart
	EventLinkFail         = scenario.LinkFail
	EventLinkRecover      = scenario.LinkRecover
	EventCapacityScale    = scenario.CapacityScale
	EventSRLGFail         = scenario.SRLGFail
	EventSRLGRecover      = scenario.SRLGRecover
	EventMaintenanceStart = scenario.MaintenanceStart
	EventMaintenanceEnd   = scenario.MaintenanceEnd
	// EventControllerFail kills one controller replica seat
	// (ScenarioEvent.Replica) at the epoch boundary; survivors take over
	// its switches and resync their rule tables. A deterministic no-op
	// when the seat doesn't exist or is the last one live, so one
	// scenario replays against control planes of any replica count.
	EventControllerFail = scenario.ControllerFail
	// EventControllerRecover re-seats a previously failed replica; a
	// no-op when the seat is live or absent.
	EventControllerRecover = scenario.ControllerRecover
)

// DiurnalScenario traces a day of demand: a sinusoid between
// (1-amplitude) and (1+amplitude) of base demand with per-aggregate
// churn layered on each epoch.
func DiurnalScenario(seed int64, epochs int, amplitude, churn float64) Scenario {
	return scenario.Diurnal(seed, epochs, amplitude, churn)
}

// FailureStormScenario fails random links one per epoch, rides the
// degraded plateau, then recovers them oldest-first.
func FailureStormScenario(seed int64, epochs, failures int) Scenario {
	return scenario.FailureStorm(seed, epochs, failures)
}

// FlashCrowdScenario spikes demand (plus a burst of new aggregates) a
// quarter into the timeline and decays it back.
func FlashCrowdScenario(seed int64, epochs int, spike float64, arrivals int) Scenario {
	return scenario.FlashCrowd(seed, epochs, spike, arrivals)
}

// MaintenanceScenario drains a random link for a planned window in the
// middle of the timeline and returns it to service.
func MaintenanceScenario(seed int64, epochs int) Scenario {
	return scenario.Maintenance(seed, epochs)
}

// SRLGOutageScenario fails a random shared-risk group declared on the
// topology (Topology.WithSRLGs) and later recovers it.
func SRLGOutageScenario(seed int64, epochs int) Scenario {
	return scenario.SRLGOutage(seed, epochs)
}

// ControllerKillStormScenario kills and re-seats controller replicas
// round-robin across the timeline (seat indices within [0, seats))
// while mild demand churn keeps every epoch moving — the HA episode
// comparing 1-replica and N-replica control planes under the same
// events.
func ControllerKillStormScenario(seed int64, epochs, seats int) Scenario {
	return scenario.ControllerKillStorm(seed, epochs, seats)
}

// ComposeScenarios merges sub-timelines into one scenario: the union of
// every sub-scenario's events in a stable epoch order, truncated to the
// composite's epoch count, replayed under the composite's seed (the
// sub-scenarios' own seeds are ignored).
func ComposeScenarios(name string, seed int64, epochs int, subs ...Scenario) Scenario {
	return scenario.Compose(name, seed, epochs, subs...)
}

// CrisisScenario is the worst-day composite: a flash crowd breaks out
// while a shared-risk group is down and a maintenance window is
// draining yet another link.
func CrisisScenario(seed int64, epochs int, spike float64, arrivals int) Scenario {
	return scenario.Crisis(seed, epochs, spike, arrivals)
}

// DiurnalKillStormScenario is the availability composite: the diurnal
// demand curve with controller replicas being killed and re-seated all
// day.
func DiurnalKillStormScenario(seed int64, epochs, seats int) Scenario {
	return scenario.DiurnalKillStorm(seed, epochs, seats)
}

// SoakScenario builds a sparse long-horizon timeline sized for soak
// replays: a demand step plus mild churn every period epochs and an
// occasional link failure cycle, O(epochs/period) events total, so a
// million-epoch soak's timeline stays small while the epochs between
// events replay as cheap quiescent rounds.
func SoakScenario(seed int64, epochs, period int) Scenario {
	return scenario.Soak(seed, epochs, period)
}

// Downsampled replay trajectories (the soak layer's fixed-memory view
// of arbitrarily long replays).
type (
	// Trajectory is one scenario family's downsampled replay time
	// series: convergence and churn folded into a fixed point budget.
	Trajectory = scenario.Trajectory
	// TrajectoryPoint is one downsampled bucket — means for utilities,
	// sums for effort and churn counters.
	TrajectoryPoint = scenario.TrajectoryPoint
	// TrajectoryRecorder folds an epoch stream into a fixed number of
	// buckets as it goes: O(points) memory regardless of replay length.
	TrajectoryRecorder = scenario.TrajectoryRecorder
)

// NewTrajectoryRecorder sizes a streaming recorder for a replay of the
// given epoch count downsampled to at most points buckets.
func NewTrajectoryRecorder(family string, epochs, points int) *TrajectoryRecorder {
	return scenario.NewTrajectoryRecorder(family, epochs, points)
}

// SampleScenarioTrajectory downsamples a collected replay result into a
// trajectory of at most points buckets.
func SampleScenarioTrajectory(family string, res *ScenarioResult, points int) Trajectory {
	return scenario.SampleTrajectory(family, res, points)
}

// ScenarioByName resolves a canned scenario (see ScenarioNames) with
// its default shape for the epoch count; an unknown name's error
// enumerates the valid ones.
func ScenarioByName(name string, seed int64, epochs int) (Scenario, error) {
	return scenario.ByName(name, seed, epochs)
}

// ScenarioNames lists the canned scenario names ScenarioByName
// resolves, in a stable order suitable for help text.
func ScenarioNames() []string { return scenario.Names() }

// ScalePreset is one reproducible large-instance preset (seeded Waxman
// topology plus a sparse random traffic matrix sized by aggregate
// count), used to benchmark the optimizer 10-100x beyond the HE-31
// evaluation instance.
type ScalePreset = scenario.ScalePreset

// ScalePresets lists the large-instance presets smallest first.
func ScalePresets() []ScalePreset { return scenario.ScalePresets() }

// ScalePresetNames lists the preset names (scale-xs .. scale-l) in
// registry order, for help text.
func ScalePresetNames() []string { return scenario.ScalePresetNames() }

// ScalePresetByName resolves a large-instance preset by its CLI name;
// an unknown name's error enumerates the valid ones.
func ScalePresetByName(name string) (ScalePreset, error) { return scenario.ScalePresetByName(name) }

// ScaleInstance generates a preset's topology and traffic matrix for a
// seed — deterministic, so benchmark instances are reproducible from the
// preset name and seed alone.
func ScaleInstance(name string, seed int64) (*Topology, *Matrix, error) {
	return scenario.ScaleInstance(name, seed)
}

// SparseTraffic draws a sparse random traffic matrix: aggregates over
// random non-self node pairs instead of the full all-pairs cross
// product, sizing the instance by aggregate count.
func SparseTraffic(topo *Topology, cfg GenConfig, aggregates int) (*Matrix, error) {
	return traffic.Sparse(topo, cfg, aggregates)
}

// ReplayScenarioSeeds replays a scenario once per seed across
// ScenarioOptions.Workers goroutines, results ordered by seed index.
func ReplayScenarioSeeds(topo *Topology, mat *Matrix, sc Scenario, seeds []int64, opts ScenarioOptions) ([]*ScenarioResult, error) {
	return scenario.RunSeeds(context.Background(), topo, mat, sc, seeds, opts)
}

// Closed-loop replay (scenario timelines driving the control plane end
// to end).
type (
	// ClosedLoopOptions tunes a closed-loop replay: simulated network,
	// TCP control plane, counter-based estimation, deadline-budgeted
	// re-optimization, differential wire installs.
	ClosedLoopOptions = scenario.ClosedLoopOptions
	// InstallRecord is one wire allocation push of a closed-loop replay.
	InstallRecord = scenario.InstallRecord
)

// SDN measurement substrate.
type (
	// Sim is the simulated SDN network (§2.1 substitute).
	Sim = sdnsim.Sim
	// SimConfig tunes the simulator.
	SimConfig = sdnsim.Config
	// EpochStats is one epoch of switch counters.
	EpochStats = sdnsim.EpochStats
	// Estimator reconstructs the traffic matrix from counters (§2.2).
	Estimator = measure.Estimator
	// AggregateKey identifies an aggregate to the estimator.
	AggregateKey = measure.AggregateKey
)

// NewSim builds a simulated network over a ground-truth matrix.
func NewSim(topo *Topology, truth *Matrix, cfg SimConfig) (*Sim, error) {
	return sdnsim.New(topo, truth, cfg)
}

// NewEstimator builds a traffic-matrix estimator for known aggregates.
func NewEstimator(keys []AggregateKey) *Estimator { return measure.NewEstimator(keys) }

// EstimatorKeys extracts estimator keys from a matrix.
func EstimatorKeys(mat *Matrix) []AggregateKey { return measure.KeysFromMatrix(mat) }

// Queueing validation (§3 "Avoiding congestion").
type (
	// QueueConfig tunes the M/M/1-style queue estimate.
	QueueConfig = netsim.Config
	// QueueResult reports per-link and per-flow queueing estimates.
	QueueResult = netsim.Result
)

// EvaluateQueues estimates queueing delay under an allocation.
func EvaluateQueues(topo *Topology, model *Model, bundles []Bundle, cfg QueueConfig) (*QueueResult, error) {
	return netsim.Evaluate(topo, model, bundles, cfg)
}

// CompareQueues reports how much less the second allocation queues than
// the first (ratio > 1 means improvement).
func CompareQueues(topo *Topology, model *Model, before, after []Bundle, cfg QueueConfig) (float64, *QueueResult, *QueueResult, error) {
	return netsim.Compare(topo, model, before, after, cfg)
}

// Metrics.
type (
	// Series is an append-only time series.
	Series = metrics.Series
	// CDF is an empirical distribution.
	CDF = metrics.CDF
	// SummaryStats holds descriptive statistics.
	SummaryStats = metrics.Summary
)

// NewCDF builds an empirical CDF from values.
func NewCDF(values []float64) *CDF { return metrics.NewCDF(values) }

// Summarize computes descriptive statistics.
func Summarize(values []float64) SummaryStats { return metrics.Summarize(values) }

// Simulated annealing comparator (§2.5 "Escaping local optima").
type (
	// AnnealOptions tunes the naive simulated-annealing allocator the
	// paper compares its escalation heuristic against.
	AnnealOptions = anneal.Options
	// AnnealSolution is a simulated-annealing outcome.
	AnnealSolution = anneal.Solution
	// AnnealRestartsResult is a parallel best-of-n restarts outcome.
	AnnealRestartsResult = anneal.RestartsResult
)

// Traffic classification (§1 "crude heuristics supplemented by operator
// knowledge").
type (
	// Classifier assigns utility classes to aggregates.
	Classifier = classify.Classifier
	// ClassifierOptions tunes the behavioural classification tier.
	ClassifierOptions = classify.Options
	// ClassifierOverride is one operator-knowledge rule.
	ClassifierOverride = classify.Override
	// FlowFeatures is what the measurement plane observes about an
	// aggregate.
	FlowFeatures = classify.Features
	// ClassDecision is a classification outcome.
	ClassDecision = classify.Decision
)

// NewClassifier builds a classifier with operator overrides.
func NewClassifier(opts ClassifierOptions, overrides ...ClassifierOverride) (*Classifier, error) {
	return classify.New(opts, overrides...)
}

// FlowFeaturesFromRates derives behavioural features from per-epoch rate
// observations.
func FlowFeaturesFromRates(rates []float64, flows int, congestedFraction float64) FlowFeatures {
	return classify.FeaturesFromRates(rates, flows, congestedFraction)
}

// Dynamic simulation (model validation and §3 queue avoidance).
type (
	// DynConfig tunes the time-stepped AIMD fluid simulator.
	DynConfig = dsim.Config
	// DynResult is a completed dynamic simulation.
	DynResult = dsim.Result
	// ModelValidation compares analytic predictions with simulated rates.
	ModelValidation = dsim.Validation
)

// SimulateDynamics runs the AIMD fluid simulation of an allocation.
func SimulateDynamics(topo *Topology, mat *Matrix, bundles []Bundle, cfg DynConfig) (*DynResult, error) {
	return dsim.Simulate(topo, mat, bundles, cfg)
}

// ValidateModel compares a traffic-model evaluation against a dynamic
// simulation of the same allocation.
func ValidateModel(bundles []Bundle, res *ModelResult, sim *DynResult) (*ModelValidation, error) {
	return dsim.Validate(bundles, res, sim)
}

// SDN control plane (§5 "in conjunction with an online controller").
type (
	// Controller is the online controller switches register with.
	Controller = ctrlplane.Controller
	// ControllerConfig tunes the controller.
	ControllerConfig = ctrlplane.ControllerConfig
	// SwitchAgent is the switch side of the control protocol.
	SwitchAgent = ctrlplane.Agent
	// SwitchAgentConfig tunes an agent.
	SwitchAgentConfig = ctrlplane.AgentConfig
	// Datapath is the forwarding element an agent fronts.
	Datapath = ctrlplane.Datapath
	// Fabric adapts the SDN simulator into per-switch datapaths.
	Fabric = ctrlplane.Fabric
	// ControlLoopConfig tunes the closed measure/optimize/install loop.
	ControlLoopConfig = ctrlplane.LoopConfig
	// ControlLoopResult summarizes a closed-loop run.
	ControlLoopResult = ctrlplane.LoopResult
	// RetryPolicy bounds controller→switch RPC retries: attempts,
	// exponential backoff base and cap.
	RetryPolicy = ctrlplane.RetryPolicy
	// ReplicaSet is a set of controller replicas sharing install state:
	// switch ownership shards across live seats by rendezvous hashing,
	// installs fan out and merge, and a failed seat's switches re-home
	// onto survivors, which resync their rule tables from the shared
	// cache.
	ReplicaSet = ctrlplane.ReplicaSet
	// HAStats snapshots a replica set's cumulative high-availability
	// counters (failovers, RPC retries, verified resyncs).
	HAStats = ctrlplane.HAStats
	// ManagedSwitchAgent is a fail-safe switch agent: it homes onto the
	// first reachable controller in its dial order, reconnects with
	// jittered exponential backoff, and applies its FailPolicy when the
	// rule lease expires with no controller reachable.
	ManagedSwitchAgent = ctrlplane.ManagedAgent
	// DialDirectory tells a managed agent which controller addresses to
	// try, in order, for its datapath ID.
	DialDirectory = ctrlplane.DialDirectory
	// StaticDirectory is a fixed-address DialDirectory.
	StaticDirectory = ctrlplane.StaticDirectory
	// FailPolicy is what an orphaned agent does with its installed rule
	// table when the lease expires.
	FailPolicy = ctrlplane.FailPolicy
)

// Orphaned-agent lease policies.
const (
	// FailStatic keeps forwarding on the stale table (the default).
	FailStatic = ctrlplane.FailStatic
	// FailClosed wipes the table: no forwarding without a controller.
	FailClosed = ctrlplane.FailClosed
)

// Control-plane error sentinels, matched with errors.Is.
var (
	// ErrClosed: the controller or replica set was shut down.
	ErrClosed = ctrlplane.ErrClosed
	// ErrSwitchDead: the switch connection was lost mid-request
	// (retryable — the agent will re-home and re-register).
	ErrSwitchDead = ctrlplane.ErrSwitchDead
	// ErrNoSuchSwitch: no registered switch has the datapath ID.
	ErrNoSuchSwitch = ctrlplane.ErrNoSuchSwitch
	// ErrTimeout: a request exhausted its per-attempt deadline
	// (retryable).
	ErrTimeout = ctrlplane.ErrTimeout
	// ErrStaleEpoch: a deposed replica's FlowMod was fenced off by an
	// agent that has seen a newer election epoch.
	ErrStaleEpoch = ctrlplane.ErrStaleEpoch
)

// ListenController starts a controller on addr.
func ListenController(addr string, cfg ControllerConfig) (*Controller, error) {
	return ctrlplane.Listen(addr, cfg)
}

// DialSwitch connects a switch agent to the controller.
func DialSwitch(addr string, datapathID uint32, nodeName string, dp Datapath, cfg SwitchAgentConfig) (*SwitchAgent, error) {
	return ctrlplane.Dial(addr, datapathID, nodeName, dp, cfg)
}

// NewFabric wraps an SDN simulator as per-switch datapaths.
func NewFabric(sim *Sim) *Fabric { return ctrlplane.NewFabric(sim) }

// NewReplicaSet starts n controller replicas on loopback listeners
// sharing install state. cfg applies to every replica (Retry defaults
// to 3 attempts).
func NewReplicaSet(n int, cfg ControllerConfig) (*ReplicaSet, error) {
	return ctrlplane.NewReplicaSet(n, cfg)
}

// NewManagedSwitchAgent starts a fail-safe switch agent that keeps
// itself homed on the first reachable controller in dir's dial order
// for its datapath ID (a *ReplicaSet is a DialDirectory).
func NewManagedSwitchAgent(datapathID uint32, nodeName string, dp Datapath, dir DialDirectory, cfg SwitchAgentConfig) (*ManagedSwitchAgent, error) {
	return ctrlplane.NewManagedAgent(datapathID, nodeName, dp, dir, cfg)
}

// RunControlLoopContext drives the closed measurement/optimization
// cycle under ctx: cancellation returns the partial result with the
// context's error.
func RunControlLoopContext(ctx context.Context, ctrl *Controller, topo *Topology, keys []AggregateKey, cfg ControlLoopConfig, advance func() error) (*ControlLoopResult, error) {
	return ctrlplane.RunLoop(ctx, ctrl, topo, keys, cfg, advance)
}

// MPLS-TE substrate (§5 "SDN or MPLS networks").
type (
	// LSPDB is an MPLS-TE head-end database with reservations,
	// priorities and preemption.
	LSPDB = mpls.LSPDB
	// LSP is one reserved label-switched path.
	LSP = mpls.LSP
	// LSPSyncStats reports what one solution sync did.
	LSPSyncStats = mpls.SyncStats
	// LSPPriority is an RSVP-TE priority level (0 strongest, 7 weakest).
	LSPPriority = mpls.Priority
)

// NewLSPDB builds an empty MPLS-TE database over a topology.
func NewLSPDB(topo *Topology) (*LSPDB, error) { return mpls.NewDB(topo) }

// Make-before-break transition planning.
type (
	// MBBReservedPath is one keyed (aggregate, path) reservation.
	MBBReservedPath = mpls.ReservedPath
	// MBBTransitionStats prices a make-before-break move: transient
	// double-reservation headroom, setup and teardown counts.
	MBBTransitionStats = mpls.TransitionStats
)

// PlanMBBTransition computes the transient cost of moving one installed
// allocation to another make-before-break (shared-explicit per key) —
// the closed-loop replay's per-epoch churn pricing.
func PlanMBBTransition(topo *Topology, old, next []MBBReservedPath) MBBTransitionStats {
	return mpls.PlanTransition(topo, old, next)
}

// SyncToMPLS reconciles an LSP database with a FUBAR allocation,
// reserving each bundle's predicted rate and moving existing tunnels
// make-before-break.
func SyncToMPLS(db *LSPDB, mat *Matrix, bundles []Bundle, rates []float64, prefix string, setup, hold LSPPriority) (*LSPSyncStats, error) {
	return mpls.SyncSolution(db, mat, bundles, rates, prefix, setup, hold)
}

// Telemetry: metrics registry, tracing, and live endpoints.
type (
	// Telemetry bundles a metrics registry with a span tracer. Attach
	// one to a Session with WithTelemetry; every layer — optimizer
	// steps, delta evaluation, replay epochs, control-plane installs —
	// accumulates into it.
	Telemetry = telemetry.Telemetry
	// MetricsSnapshot is a point-in-time, JSON-marshalable copy of
	// every counter, gauge and histogram in a telemetry registry.
	MetricsSnapshot = telemetry.Snapshot
	// TraceEvent is one completed telemetry span (step, epoch, …).
	TraceEvent = telemetry.Event
)

// NewTelemetry builds an empty telemetry bundle (registry + tracer).
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetryHandler serves t live over HTTP: Prometheus text /metrics,
// Go profiling under /debug/pprof/, and a JSONL span stream at /trace.
// Mount it on any mux or pass it straight to http.Serve.
func TelemetryHandler(t *Telemetry) http.Handler { return telemetry.Handler(t) }

// CheckExposition validates a Prometheus text-format scrape (as served
// by /metrics) — HELP/TYPE ordering, naming, parseable samples —
// returning the first violation. Scrape checks in CI and the fubard
// smoke use it.
func CheckExposition(body string) error { return telemetry.CheckExposition(body) }

// Failure recovery.
type (
	// FailoverOutcome captures a link-failure episode: healthy,
	// degraded-stale, and warm-start recovered utilities.
	FailoverOutcome = experiment.FailoverResult
)

// Failover optimizes, fails the hottest link, and re-optimizes around
// it warm-started from the installed allocation.
func Failover(topo *Topology, mat *Matrix, opts Options) (*FailoverOutcome, error) {
	return experiment.Failover(context.Background(), topo, mat, opts)
}
