// Package core implements FUBAR's flow allocation optimizer — the paper's
// primary contribution (§2.5, Listings 1 and 2).
//
// The optimizer starts with every aggregate on its lowest-delay
// policy-compliant path, evaluates the §2.3 traffic model, and then
// repeatedly relieves the most oversubscribed congested link: for every
// bundle crossing it, it tests moving N flows to each of the three §2.4
// alternative paths (global / local / link-local) and commits the single
// move with the best predicted network utility. When no move improves
// utility it escalates N — moving larger and larger chunks, up to whole
// aggregates — to escape local optima (§2.5, "Escaping local optima");
// when even whole-aggregate moves cannot improve utility, it terminates.
//
// # Parallel candidate collection and evaluation
//
// Trial evaluations dominate the runtime: every step tests each
// (aggregate × crossing-bundle × alternative) candidate with a
// water-filling over all bundles. Both halves of the step pipeline fan
// out over Options.Workers goroutines (default GOMAXPROCS). Collection
// shards the per-aggregate §2.4 alternative enumeration in fixed
// aggregate chunks with an index-ordered merge, so the candidate list is
// the serial scan's at any worker count. Evaluation then fans the
// candidates out over workers, each owning a private flowmodel.Eval
// arena and a persistent trial buffer synced once per step to the dense
// committed list: a candidate writes its two patched entries, evaluates,
// and reverts them (patch-and-revert), instead of copying the whole list
// per candidate. Move selection replays the candidates in collection
// order, so the committed move sequence — and thus the whole Solution —
// is identical for any worker count (unless a wall-clock Options.Deadline
// truncates the run; see Options.Workers).
//
// # Incremental candidate evaluation
//
// With Options.DeltaEval left at DeltaAuto (the default), each step
// evaluates the committed allocation once (flowmodel.Eval.EvaluateBase on
// the optimizer's base arena) and every candidate runs
// flowmodel.Eval.EvaluateDelta against that shared read-only base: only
// the sub-problem the move actually perturbs is re-filled, with automatic
// fallback to a full evaluation when the affected set is large. Scoring
// uses the utility-only delta mode (EvaluateDeltaUtility — no Result
// finalization), while the committed move always gets a full result.
// Delta results are bit-identical to full evaluations of the same list,
// so DeltaAuto and DeltaOff commit the exact same move sequence at any
// worker count.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/telemetry"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// defaultMinGain is the default minimum utility gain considered progress.
// Gains below it are water-filling noise: committing them lets the greedy
// crawl forever at +1e-9 per move without visibly changing the solution.
const defaultMinGain = 1e-6

// AltMode selects which of the §2.4 alternatives the optimizer may test.
// The default (AltAll) is the paper's trio; the others exist for the
// path-choice ablation.
type AltMode uint8

// Alternative-path ablation modes.
const (
	AltAll AltMode = iota
	AltGlobalOnly
	AltLocalOnly
	AltLinkLocalOnly
)

// String names the mode.
func (m AltMode) String() string {
	switch m {
	case AltAll:
		return "all"
	case AltGlobalOnly:
		return "global-only"
	case AltLocalOnly:
		return "local-only"
	case AltLinkLocalOnly:
		return "link-local-only"
	default:
		return "unknown"
	}
}

// DeltaMode selects the candidate-evaluation strategy.
type DeltaMode uint8

// Candidate-evaluation strategies.
const (
	// DeltaAuto (default): evaluate candidates incrementally against a
	// per-step base snapshot, falling back to full evaluations when a
	// move's affected set is too large to pay off. Bit-identical results
	// to DeltaOff, usually much faster.
	DeltaAuto DeltaMode = iota
	// DeltaOff: every candidate runs a full water-filling (the pre-delta
	// behavior; also useful for benchmarking the incremental path).
	DeltaOff
)

// String names the mode.
func (m DeltaMode) String() string {
	switch m {
	case DeltaAuto:
		return "auto"
	case DeltaOff:
		return "off"
	default:
		return "unknown"
	}
}

// Options tunes the optimizer. The zero value is usable: every field has a
// sensible default applied by Run.
type Options struct {
	// Policy constrains generated paths (§2.4 "policy compliant").
	Policy pathgen.Policy
	// MoveFraction is the base fraction of an aggregate's flows moved per
	// step for large aggregates. Default 0.25.
	MoveFraction float64
	// SmallAggregateFlows: aggregates with at most this many flows move
	// in their entirety (§2.5 "small aggregates are moved in their
	// entirety"). Default 10.
	SmallAggregateFlows int
	// EscalationFactor multiplies the move fraction while stuck in a
	// local optimum. Default 2.
	EscalationFactor float64
	// MaxPathsPerAggregate bounds each aggregate's path set (§2.4 finds
	// "ten to fifteen" in practice). Default 15.
	MaxPathsPerAggregate int
	// MinGain is the smallest network-utility improvement a move must
	// deliver to count as progress. Default 1e-6.
	MinGain float64
	// MaxSteps bounds committed moves; 0 means unbounded.
	MaxSteps int
	// Workers is the number of goroutines evaluating candidate moves per
	// step, each with a private flowmodel.Eval arena. Default GOMAXPROCS;
	// 1 evaluates serially on the calling goroutine. Any value commits
	// the exact move sequence of Workers=1 — except when a wall-clock
	// Deadline truncates the run, since faster workers then fit more
	// steps before the cutoff (a Deadline makes even two Workers=1 runs
	// machine-dependent).
	Workers int
	// Deadline bounds wall-clock optimization time; 0 means unbounded.
	Deadline time.Duration
	// AltMode restricts the alternative trio (ablation only).
	AltMode AltMode
	// DeltaEval selects how candidate moves are evaluated. The zero
	// value, DeltaAuto, evaluates each candidate incrementally against a
	// per-step base snapshot — exact (bit-identical to full evaluation)
	// but proportional to the move's affected sub-problem instead of the
	// whole network. DeltaOff restores full per-candidate evaluations.
	DeltaEval DeltaMode
	// DisableEscalation turns off §2.5 escalation (ablation only): the
	// optimizer then terminates at the first local optimum.
	DisableEscalation bool
	// InitialBundles warm-starts the optimizer from an existing
	// allocation instead of Listing 1 line 1's all-on-lowest-delay
	// placement — the incremental re-optimization an offline controller
	// runs when demand or topology shifts under an installed solution.
	// Bundles must cover every aggregate's flows exactly. Paths are
	// accepted as-is (they are installed state, even if the current
	// Policy would no longer generate them); new alternatives remain
	// policy-compliant, so non-compliant warm-start paths can only
	// drain.
	InitialBundles []flowmodel.Bundle
	// KeepFinalBase exports the run's persistent delta Base in
	// Solution.FinalBase. The base is detached from the optimizer — a
	// later run on the same optimizer starts a fresh one — so the caller
	// owns it outright; hand it back to a later run via WarmBase to
	// recycle its storage. No effect when the run never built a base
	// (DeltaOff).
	KeepFinalBase bool
	// WarmBase and WarmBaseSpare donate recycled Base storage (typically
	// a previous run's Solution.FinalBase / FinalBaseSpare) for this
	// run's persistent base and its remap double-buffer. Contents are
	// treated as stale and overwritten by the run's first capture; only
	// the backing arrays are reused, which keeps the per-epoch base
	// allocation of a long replay O(1) instead of O(epochs). The
	// optimizer takes ownership; the caller must not touch them
	// afterward.
	WarmBase      *flowmodel.Base
	WarmBaseSpare *flowmodel.Base
	// Trace, if set, receives a snapshot after the initial evaluation and
	// after every committed move. Snapshots share the optimizer's result
	// storage: copy anything retained beyond the callback. Trace is
	// invoked from the goroutine that called Run — never from a worker —
	// so a callback may read plain (non-atomic) state it owns.
	Trace func(Snapshot)
	// Telemetry, if set, receives live metrics (step/candidate counters,
	// delta-evaluation activity, shard-merge and step wall time) and
	// step span events. Instrumentation is atomic-counter cheap, never
	// influences control flow, and is skipped entirely when nil.
	Telemetry *telemetry.Telemetry
}

func (o Options) withDefaults() Options {
	if o.MoveFraction <= 0 {
		o.MoveFraction = 0.25
	}
	if o.SmallAggregateFlows <= 0 {
		o.SmallAggregateFlows = 10
	}
	if o.EscalationFactor <= 1 {
		o.EscalationFactor = 2
	}
	if o.MaxPathsPerAggregate <= 0 {
		o.MaxPathsPerAggregate = 15
	}
	if o.MinGain <= 0 {
		o.MinGain = defaultMinGain
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Snapshot is a progress report delivered to Options.Trace.
type Snapshot struct {
	// Step counts committed moves so far (0 = initial shortest-path
	// allocation).
	Step int
	// Elapsed is wall-clock time since Run started.
	Elapsed time.Duration
	// Escalation is the current escalation level (0 = base move size).
	Escalation int
	// Result is the model evaluation of the current allocation. Shared
	// storage — valid only during the callback.
	Result *flowmodel.Result
}

// StopReason explains why optimization ended.
type StopReason uint8

// Stop reasons.
const (
	// StopNoCongestion: every link uncongested — the solution is optimal
	// (all flows satisfied on their lowest-delay compliant paths).
	StopNoCongestion StopReason = iota
	// StopLocalOptimum: congestion remains but no move — even at maximum
	// escalation — improves utility.
	StopLocalOptimum
	// StopMaxSteps: Options.MaxSteps reached.
	StopMaxSteps
	// StopDeadline: Options.Deadline or the context's deadline reached.
	StopDeadline
	// StopCancelled: the run's context was cancelled. The partial
	// solution is still returned — deterministic up to the cancellation
	// point, which is itself wall-clock-dependent.
	StopCancelled
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopNoCongestion:
		return "no-congestion"
	case StopLocalOptimum:
		return "local-optimum"
	case StopMaxSteps:
		return "max-steps"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Solution is the outcome of a Run.
type Solution struct {
	// Bundles is the final allocation: one bundle per (aggregate, path)
	// with a positive flow count.
	Bundles []flowmodel.Bundle
	// Result is the model evaluation of Bundles (deep copy, caller owns).
	Result *flowmodel.Result
	// Utility is Result.NetworkUtility, for convenience.
	Utility float64
	// InitialUtility is the shortest-path allocation's utility — the
	// paper's "shortest path" reference line.
	InitialUtility float64
	// Steps is the number of committed moves.
	Steps int
	// Escalations counts how many times the move size was escalated.
	Escalations int
	// Elapsed is total optimization wall time.
	Elapsed time.Duration
	// Stop explains termination.
	Stop StopReason
	// PathsPerAggregate is the mean path-set size at termination.
	PathsPerAggregate float64
	// Delta aggregates the incremental-evaluation counters of every
	// worker arena: calls, fallbacks and affected-set sizes. All zero
	// when Options.DeltaEval is DeltaOff.
	Delta flowmodel.DeltaStats
	// Base counts how each step's delta base was obtained — the
	// persistent-base bookkeeping. All zero under DeltaOff.
	Base BaseStats
	// FinalBase, set only when Options.KeepFinalBase is true and a base
	// was built, hands the run's persistent delta Base to the caller
	// (detached — the optimizer forgets it, so a later run cannot clobber
	// it). When the run ended with the base live its contents capture
	// Bundles exactly (FinalBase.NetworkUtility() == Utility); either way
	// the object is valid recycled storage for Options.WarmBase.
	// FinalBaseSpare is the remap double-buffer's other half, exported
	// alongside so a replay recycles the whole pair: feed it back via
	// Options.WarmBaseSpare and a million-epoch soak allocates exactly
	// two Base objects total.
	FinalBase      *flowmodel.Base
	FinalBaseSpare *flowmodel.Base
}

// BaseStats counts how the per-step delta base snapshots were produced.
// Captures are full evaluations; every other row is base reuse that
// eliminated one.
type BaseStats struct {
	// Captures counts fresh EvaluateBase runs (full evaluations).
	Captures int `json:"captures"`
	// Remaps counts bases carried to a new step's list layout by index
	// translation alone.
	Remaps int `json:"remaps"`
	// Skips counts steps whose layout matched the live base exactly
	// (escalation retries), needing no work at all.
	Skips int `json:"skips"`
	// Rebases counts committed moves folded into the base in place;
	// Recaptures counts commits whose delta fell back to a full
	// evaluation (oversized affected set).
	Rebases    int `json:"rebases"`
	Recaptures int `json:"recaptures"`
	// FinalFromBase counts final-allocation evaluations materialized
	// from the live base (Eval.ResultFromBase) instead of a fresh full
	// evaluation — 1 for a run that ended base-live, 0 otherwise.
	FinalFromBase int `json:"final_from_base"`
}

// aggState tracks one aggregate's path set and flow split.
type aggState struct {
	set    *pathgen.PathSet
	flows  []int // parallel to set.Paths()
	delays []unit.Delay
	total  int // total flows (invariant: sum(flows) == total)
	self   bool
}

// Optimizer runs FUBAR on one topology + traffic matrix. Construct with
// New; call Run once per instance (Run restarts from scratch each call).
type Optimizer struct {
	model *flowmodel.Model
	gen   *pathgen.Generator
	mat   *traffic.Matrix
	opts  Options

	aggs      []aggState
	bundleBuf []flowmodel.Bundle
	// segStart[i] is the offset of aggregate i's bundles within the list
	// buildBundles last produced; full-evaluation trial moves patch one
	// segment without rebuilding the rest.
	segStart []int
	// denseBuf is the trial-move engine's per-step committed list: one
	// bundle per (aggregate, path-set entry) including zero-flow
	// placeholders, so every candidate is a two-entry flow patch at a
	// stable index and all candidates of a step share one list layout.
	// denseSeg[i] is the offset of aggregate i's segment
	// (denseSeg[len(aggs)] == len(denseBuf)); densePath[k] is entry k's
	// path-set index within its aggregate (-1 for self-pairs), which is
	// what lets a live base be remapped between step layouts.
	denseBuf  []flowmodel.Bundle
	denseSeg  []int
	densePath []int
	// baseEval owns the delta-base machinery; base is the captured
	// snapshot the candidate deltas splice from, read-only while workers
	// run, and altBase is the remap double-buffer. The base persists
	// across steps: committed moves are folded in with CommitDelta and
	// layout changes handled by RemapBase, so a step only pays a full
	// base evaluation when reuse is impossible (first step, fallback, or
	// a full-path commit staled it).
	baseEval *flowmodel.Eval
	base     *flowmodel.Base
	altBase  *flowmodel.Base
	// baseLive marks base as capturing the current committed allocation
	// over the layout described by basePath/baseSeg.
	baseLive bool
	basePath []int
	baseSeg  []int
	// oldIdxBuf is the remap-translation scratch; commitBuf holds the
	// post-commit patched list handed to CommitDelta.
	oldIdxBuf []int
	commitBuf []flowmodel.Bundle
	baseStats BaseStats
	// candAgg marks the aggregates of the current step's candidates while
	// buildStepBundles runs (cleared after).
	candAgg []bool
	// deltaOff latches once DeltaAuto's running statistics show the
	// instance's affected components are too large for incremental
	// evaluation to pay; the rest of the run uses full evaluations. The
	// statistics are sums over the step's candidate set — identical at
	// any worker count — so the latch is deterministic, and candidate
	// utilities are bit-identical either way, so it never changes the
	// committed sequence.
	deltaOff bool

	// denseGen counts buildStepBundles calls; workers compare it against
	// their syncGen to decide whether their persistent trial buffer still
	// mirrors the committed dense list (patch-and-revert) or must resync
	// with one full copy for the step.
	denseGen uint64

	// scratch
	// congAll is set from the congested-link list before collection and
	// unset from the same list afterwards, so its cost scales with the
	// congestion set, not the topology. Collection workers only read it.
	congAll []bool
	cands   []candidate

	// collectors are the persistent candidate-collection shards, one per
	// collection goroutine: a private path generator plus the per-link
	// scratch alternativesFor needs, grown on demand up to
	// Options.Workers. collectors[0] shares the optimizer's generator
	// (its lowest-delay cache serves initAllocation).
	collectors []*collector

	// workers are the persistent trial evaluators, one arena + bundle
	// buffer each, grown on demand up to Options.Workers.
	workers []*worker

	// probe, when set (RunCandidateBench), replaces the candidate
	// evaluation call so instrumentation can time/verify both evaluation
	// strategies on the exact trial lists the optimizer produces.
	probe func(w *worker, buf []flowmodel.Bundle, changed []int, base *flowmodel.Base) float64

	// tm/tracer are the live-metrics handles built from
	// Options.Telemetry (nil when telemetry is off); pubDelta is the
	// portion of the workers' cumulative DeltaStats already folded into
	// the registry, so each step publishes only the diff.
	tm       *telemetry.CoreMetrics
	tracer   *telemetry.Tracer
	pubDelta flowmodel.DeltaStats
}

// worker is one candidate evaluator: a private flowmodel arena plus the
// scratch it assembles trial bundle lists into. buf persists across
// candidates: once synced to the step's dense list (syncGen ==
// Optimizer.denseGen) every candidate writes its two patched entries,
// evaluates, and reverts them, instead of re-copying the whole list.
type worker struct {
	eval    *flowmodel.Eval
	buf     []flowmodel.Bundle
	syncGen uint64
	changed [2]int // delta changed-index scratch (from, to dense indices)
}

// collector is one candidate-collection shard: a private path generator
// (pathgen.Generator is not concurrency-safe) plus the scratch
// crossingPaths and alternativesFor mutate per aggregate.
type collector struct {
	gen *pathgen.Generator
	// congUsed is set from the congested ∩ used links before a pathgen
	// call and unset afterwards.
	congUsed []bool
	// usedStamp[e] == usedEpoch marks links the current aggregate uses;
	// bumping the epoch invalidates all marks without an O(numLinks)
	// clear.
	usedStamp []uint32
	usedEpoch uint32
	crossBuf  []int
	// cands accumulates this shard's candidates; chunkEnd[k] is the end
	// offset of the shard's k-th owned chunk, in claim order, so the
	// index-ordered merge can interleave shards back into global
	// aggregate order.
	cands    []candidate
	chunkEnd []int
}

// New builds an optimizer.
func New(model *flowmodel.Model, opts Options) (*Optimizer, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	opts = opts.withDefaults()
	gen, err := pathgen.New(model.Topology(), opts.Policy)
	if err != nil {
		return nil, err
	}
	nL := model.Topology().NumLinks()
	o := &Optimizer{
		model:   model,
		gen:     gen,
		mat:     model.Matrix(),
		opts:    opts,
		congAll: make([]bool, nL),
	}
	if opts.Telemetry != nil {
		o.tm = opts.Telemetry.Core()
		o.tracer = opts.Telemetry.Tracer
	}
	return o, nil
}

// Run executes Listing 1 and returns the solution. The context is
// honored at candidate-batch granularity: it is checked before every
// step's candidate evaluation, never inside one, so the committed move
// sequence is deterministic up to the cancellation point. A context
// whose deadline expired stops the run with StopDeadline (best-so-far
// solution published, like Options.Deadline); a cancelled context stops
// it with StopCancelled. Neither is an error — the partial solution is
// returned either way.
func (o *Optimizer) Run(ctx context.Context) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := o.initAllocation(); err != nil {
		return nil, err
	}
	// Run restarts from scratch, including when a Session reuses this
	// optimizer: the persistent base is stale and the per-run counters
	// must not accumulate across calls.
	o.baseLive = false
	o.baseStats = BaseStats{}
	for _, w := range o.workers {
		w.eval.ResetDeltaStats()
	}
	o.pubDelta = flowmodel.DeltaStats{}
	if o.tm != nil {
		o.tm.Runs.Inc()
	}
	// Under DeltaAuto the initial evaluation doubles as the first base
	// capture: EvaluateBase returns exactly what Evaluate would (the
	// capture is a copy-out, not different math), and the first step then
	// carries it over by index remap instead of paying its own
	// EvaluateBase — so a run's capture count is the initial evaluation
	// itself, nothing more.
	var res *flowmodel.Result
	if o.opts.DeltaEval == DeltaAuto && !o.deltaOff {
		o.ensureBase()
		res = o.baseEval.EvaluateBase(o.buildPositiveLayout(), o.base)
		o.baseStats.Captures++
		o.baseLive = true
		o.saveBaseLayout()
	} else {
		res = o.evaluate()
	}
	initial := res.NetworkUtility
	steps, escal := 0, 0
	fraction := o.opts.MoveFraction
	escLevel := 0
	o.trace(Snapshot{Step: 0, Elapsed: time.Since(start), Result: res})

	// Snapshot what the pass loop needs by value: trial evaluations run
	// on private worker arenas and leave res alone, but the evaluate()
	// and rebase results here live on arenas the next step reuses, so
	// res's contents are only meaningful immediately after they are
	// produced. links is freshly allocated by
	// CongestedByOversubscription, so it cannot alias arena storage, and
	// its sorted order is what alternativesFor's most-congested pick
	// relies on.
	uCur := res.NetworkUtility
	links := o.model.CongestedByOversubscription(res)

	// ctxStop classifies a Done context; zero means keep running.
	ctxStop := func() StopReason {
		if err := ctx.Err(); err != nil {
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				return StopDeadline
			}
			return StopCancelled
		}
		return 0
	}

	var stop StopReason
loop:
	for {
		if len(links) == 0 {
			stop = StopNoCongestion
			break
		}
		if o.opts.MaxSteps > 0 && steps >= o.opts.MaxSteps {
			stop = StopMaxSteps
			break
		}
		if o.opts.Deadline > 0 && time.Since(start) >= o.opts.Deadline {
			stop = StopDeadline
			break
		}
		if stop = ctxStop(); stop != 0 {
			break
		}
		// Listing 1 lines 4-9: walk congested links by oversubscription;
		// the first link whose step() makes progress ends the pass.
		progress := false
		var committed *flowmodel.Result
		var stepStart time.Time
		if o.tm != nil {
			stepStart = time.Now()
		}
		for _, link := range links {
			if stop = ctxStop(); stop != 0 {
				break loop
			}
			if ok, cres := o.step(link, uCur, links, fraction); ok {
				progress, committed = true, cres
				break
			}
		}
		if progress {
			steps++
			fraction = o.opts.MoveFraction // de-escalate on progress
			escLevel = 0
			if committed != nil {
				// The commit was folded into the persistent base; its
				// delta result is the committed allocation's evaluation.
				res = committed
			} else {
				res = o.evaluate()
			}
			uCur = res.NetworkUtility
			links = o.model.CongestedByOversubscription(res)
			o.trace(Snapshot{Step: steps, Elapsed: time.Since(start), Escalation: escLevel, Result: res})
			if o.tm != nil {
				o.tm.Steps.Inc()
				o.tm.StepSeconds.Observe(time.Since(stepStart).Seconds())
				o.publishDeltaStats()
				o.tracer.Emit("core.step", stepStart, map[string]any{
					"step": steps, "utility": uCur, "congested": len(links),
				})
			}
			continue
		}
		// Local optimum (§2.5): escalate the move size; give up once even
		// whole-aggregate moves fail. The allocation did not change, so
		// the uCur/links snapshot stays valid.
		if o.opts.DisableEscalation || fraction >= 1 {
			stop = StopLocalOptimum
			break loop
		}
		fraction *= o.opts.EscalationFactor
		if fraction > 1 {
			fraction = 1
		}
		escLevel++
		escal++
		if o.tm != nil {
			o.tm.Escalations.Inc()
		}
	}
	if o.tm != nil {
		o.publishDeltaStats() // fold in the final (uncommitted) step's activity
	}

	final := o.finalResult()
	sol := &Solution{
		Bundles:        o.snapshotBundles(),
		Result:         final.Clone(),
		Utility:        final.NetworkUtility,
		InitialUtility: initial,
		Steps:          steps,
		Escalations:    escal,
		Elapsed:        time.Since(start),
		Stop:           stop,
	}
	for _, w := range o.workers {
		sol.Delta.Add(w.eval.DeltaStats())
	}
	sol.Base = o.baseStats
	if o.opts.KeepFinalBase && o.base != nil {
		sol.FinalBase = o.base
		sol.FinalBaseSpare = o.altBase
		o.base = nil
		o.altBase = nil
		o.baseLive = false
	}
	var totalPaths int
	nonSelf := 0
	for _, a := range o.aggs {
		if a.self {
			continue
		}
		totalPaths += a.set.Len()
		nonSelf++
	}
	if nonSelf > 0 {
		sol.PathsPerAggregate = float64(totalPaths) / float64(nonSelf)
	}
	return sol, nil
}

// initAllocation puts every aggregate's flows on its lowest-delay path
// (Listing 1 line 1), or restores the warm-start allocation when
// Options.InitialBundles is set.
func (o *Optimizer) initAllocation() error {
	n := o.mat.NumAggregates()
	o.aggs = make([]aggState, n)
	for i := 0; i < n; i++ {
		a := o.mat.Aggregate(traffic.AggregateID(i))
		st := &o.aggs[i]
		st.total = a.Flows
		if a.IsSelfPair() {
			st.self = true
			continue
		}
		p, ok := o.gen.LowestDelay(a.Src, a.Dst)
		if !ok {
			return fmt.Errorf("core: no policy-compliant path for aggregate %d (%s->%s)",
				a.ID, o.model.Topology().NodeName(a.Src), o.model.Topology().NodeName(a.Dst))
		}
		st.set = pathgen.NewPathSet(o.opts.MaxPathsPerAggregate)
		st.set.Add(p)
		st.flows = []int{a.Flows}
		st.delays = []unit.Delay{o.model.Topology().PathDelay(p)}
	}
	if o.opts.InitialBundles != nil {
		return o.applyWarmStart(o.opts.InitialBundles)
	}
	return nil
}

// applyWarmStart overlays an existing allocation on the freshly
// initialized state: each bundle's path joins its aggregate's path set
// and receives the bundle's flows; the lowest-delay path stays in the
// set (possibly at zero flows) so the trio search behaves as usual.
func (o *Optimizer) applyWarmStart(bundles []flowmodel.Bundle) error {
	topo := o.model.Topology()
	covered := make([]int, len(o.aggs))
	// Zero the default placement before overlaying.
	for i := range o.aggs {
		st := &o.aggs[i]
		if st.self {
			continue // self-pairs carry no routed state to cover
		}
		for j := range st.flows {
			st.flows[j] = 0
		}
	}
	for _, b := range bundles {
		if int(b.Agg) < 0 || int(b.Agg) >= len(o.aggs) {
			return fmt.Errorf("core: warm start references unknown aggregate %d", b.Agg)
		}
		if b.Flows < 0 {
			return fmt.Errorf("core: warm start bundle with negative flows on aggregate %d", b.Agg)
		}
		st := &o.aggs[b.Agg]
		if st.self {
			continue // self-pairs have no routed state
		}
		if b.Flows == 0 {
			continue
		}
		a := o.mat.Aggregate(b.Agg)
		p := graph.Path{Edges: b.Edges}
		if err := p.Validate(topo.Graph(), a.Src, a.Dst); err != nil {
			return fmt.Errorf("core: warm start path for aggregate %d: %w", b.Agg, err)
		}
		idx := st.set.IndexOf(p)
		if idx < 0 {
			if !st.set.Add(p) {
				return fmt.Errorf("core: warm start for aggregate %d exceeds path-set limit %d",
					b.Agg, o.opts.MaxPathsPerAggregate)
			}
			idx = st.set.Len() - 1
			st.flows = append(st.flows, 0)
			st.delays = append(st.delays, topo.PathDelay(p))
		}
		st.flows[idx] += b.Flows
		covered[b.Agg] += b.Flows
	}
	for i, c := range covered {
		if !o.aggs[i].self && c != o.aggs[i].total {
			return fmt.Errorf("core: warm start covers %d flows of aggregate %d, want %d",
				c, i, o.aggs[i].total)
		}
	}
	return nil
}

// buildBundles assembles the model input from the current allocation —
// one bundle per (aggregate, path) with positive flows — recording each
// aggregate's segment offsets in o.segStart (segStart[len(aggs)] ==
// len(list)) so full-evaluation trial moves can patch a single
// aggregate's segment without rebuilding the rest.
func (o *Optimizer) buildBundles() []flowmodel.Bundle {
	o.bundleBuf = o.bundleBuf[:0]
	if cap(o.segStart) < len(o.aggs)+1 {
		o.segStart = make([]int, len(o.aggs)+1)
	}
	o.segStart = o.segStart[:len(o.aggs)+1]
	for i := range o.aggs {
		o.segStart[i] = len(o.bundleBuf)
		st := &o.aggs[i]
		if st.self {
			o.bundleBuf = append(o.bundleBuf, flowmodel.Bundle{
				Agg: traffic.AggregateID(i), Flows: st.total,
			})
			continue
		}
		for pi, f := range st.flows {
			if f <= 0 {
				continue
			}
			o.bundleBuf = append(o.bundleBuf, flowmodel.Bundle{
				Agg:   traffic.AggregateID(i),
				Flows: f,
				Edges: st.set.Path(pi).Edges,
				Delay: st.delays[pi],
			})
		}
	}
	o.segStart[len(o.aggs)] = len(o.bundleBuf)
	return o.bundleBuf
}

// buildStepBundles assembles the trial-move engine's committed list for
// one step, recording each aggregate's segment offset in o.denseSeg.
// Aggregates that appear in the step's candidates are emitted densely —
// one bundle per path-set entry, zero-flow paths included — so a
// candidate move patches the Flows of two entries at fixed indices
// instead of reshaping the list, which is what lets the delta evaluator
// map candidate bundles onto base bundles one-to-one. Every other
// aggregate contributes only its positive bundles, keeping the list (and
// thus every evaluation over it) near the sparse committed size.
// Zero-flow placeholders are inert in the traffic model (no weight, no
// demand, no link contributions), so the list evaluates to exactly the
// same utility as buildBundles'.
func (o *Optimizer) buildStepBundles(cands []candidate) []flowmodel.Bundle {
	if cap(o.candAgg) < len(o.aggs) {
		o.candAgg = make([]bool, len(o.aggs))
	}
	o.candAgg = o.candAgg[:len(o.aggs)]
	for i := range cands {
		o.candAgg[cands[i].agg] = true
	}
	o.denseBuf = o.denseBuf[:0]
	o.densePath = o.densePath[:0]
	if cap(o.denseSeg) < len(o.aggs)+1 {
		o.denseSeg = make([]int, len(o.aggs)+1)
	}
	o.denseSeg = o.denseSeg[:len(o.aggs)+1]
	for i := range o.aggs {
		o.denseSeg[i] = len(o.denseBuf)
		st := &o.aggs[i]
		if st.self {
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg: traffic.AggregateID(i), Flows: st.total,
			})
			o.densePath = append(o.densePath, -1)
			continue
		}
		for pi := range st.flows {
			if st.flows[pi] <= 0 && !o.candAgg[i] {
				continue
			}
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg:   traffic.AggregateID(i),
				Flows: st.flows[pi],
				Edges: st.set.Path(pi).Edges,
				Delay: st.delays[pi],
			})
			o.densePath = append(o.densePath, pi)
		}
	}
	o.denseSeg[len(o.aggs)] = len(o.denseBuf)
	for i := range cands {
		o.candAgg[cands[i].agg] = false
	}
	// A new dense list invalidates every worker's synced trial buffer.
	o.denseGen++
	return o.denseBuf
}

// buildPositiveLayout assembles the committed allocation's positive
// bundle list — content-identical to buildBundles' — into the dense
// scratch (denseBuf/denseSeg/densePath), so the layout can seed or
// receive a base remap: the positive list is the placeholder-free
// special case of a step layout.
func (o *Optimizer) buildPositiveLayout() []flowmodel.Bundle {
	o.denseBuf = o.denseBuf[:0]
	o.densePath = o.densePath[:0]
	if cap(o.denseSeg) < len(o.aggs)+1 {
		o.denseSeg = make([]int, len(o.aggs)+1)
	}
	o.denseSeg = o.denseSeg[:len(o.aggs)+1]
	for i := range o.aggs {
		o.denseSeg[i] = len(o.denseBuf)
		st := &o.aggs[i]
		if st.self {
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg: traffic.AggregateID(i), Flows: st.total,
			})
			o.densePath = append(o.densePath, -1)
			continue
		}
		for pi, f := range st.flows {
			if f <= 0 {
				continue
			}
			o.denseBuf = append(o.denseBuf, flowmodel.Bundle{
				Agg:   traffic.AggregateID(i),
				Flows: f,
				Edges: st.set.Path(pi).Edges,
				Delay: st.delays[pi],
			})
			o.densePath = append(o.densePath, pi)
		}
	}
	o.denseSeg[len(o.aggs)] = len(o.denseBuf)
	// A new dense list invalidates every worker's synced trial buffer.
	o.denseGen++
	return o.denseBuf
}

func (o *Optimizer) evaluate() *flowmodel.Result {
	return o.model.Evaluate(o.buildBundles())
}

// finalResult produces the final allocation's evaluation. With a live
// base, the positive list is a monotonic sub-layout of the base's (every
// positive entry is captured; entries dropped relative to the base are
// inert zero-flow placeholders), so the capture remaps onto it and the
// Result materializes from the base with no water-filling at all.
// Otherwise — no base (DeltaOff), base staled by a full-path commit, or
// the remap refused — the classic full evaluation runs. Both paths are
// bit-identical by the CommitDelta/RemapBase contract.
func (o *Optimizer) finalResult() *flowmodel.Result {
	if o.baseLive {
		dense := o.buildPositiveLayout()
		if slices.Equal(o.basePath, o.densePath) && slices.Equal(o.baseSeg, o.denseSeg) {
			o.baseStats.FinalFromBase++
			return o.baseEval.ResultFromBase(o.base)
		}
		if o.remapBase(dense) {
			o.saveBaseLayout()
			o.baseStats.FinalFromBase++
			return o.baseEval.ResultFromBase(o.base)
		}
		o.baseLive = false
	}
	return o.evaluate()
}

// snapshotBundles deep-copies the current allocation.
func (o *Optimizer) snapshotBundles() []flowmodel.Bundle {
	src := o.buildBundles()
	out := make([]flowmodel.Bundle, len(src))
	for i, b := range src {
		out[i] = flowmodel.Bundle{
			Agg:   b.Agg,
			Flows: b.Flows,
			Edges: append([]graph.EdgeID(nil), b.Edges...),
			Delay: b.Delay,
		}
	}
	return out
}

// candidate describes one trial reallocation discovered by
// collectCandidates: n flows of aggregate agg from path index from to
// path index to (already present in the aggregate's path set). utility is
// filled by evaluateCandidates.
type candidate struct {
	agg     int
	from    int
	to      int
	n       int
	utility float64
}

// step implements Listing 2 for one congested link: collect every
// candidate move over bundles crossing it, evaluate the candidates across
// the worker pool, and commit the best improving move. uInit and
// congested describe the committed allocation — congested sorted by
// decreasing oversubscription (alternativesFor's most-congested pick
// depends on that order) and not aliasing storage a later evaluate() on
// the model's default arena overwrites. Returns whether progress was
// made.
//
// Under DeltaAuto the committed dense list is evaluated once on the base
// arena and every candidate is an incremental delta against that shared
// snapshot; under DeltaOff each candidate is a full evaluation of the
// same patched list. Both produce bit-identical candidate utilities.
//
// Selection replays the candidates in collection order with the same
// improve-by-MinGain rule the serial mutate-evaluate-revert loop used, so
// any worker count commits the identical move.
func (o *Optimizer) step(link graph.EdgeID, uInit float64, congested []graph.EdgeID, fraction float64) (bool, *flowmodel.Result) {
	cands := o.collectCandidates(link, congested, fraction)
	if o.tm != nil {
		o.tm.CandidatesCollected.Add(int64(len(cands)))
	}
	if len(cands) == 0 {
		return false, nil
	}
	// A fresh base snapshot costs one full evaluation plus its capture;
	// a step with fewer candidates than that buys cannot amortize it, so
	// tiny steps take the full-evaluation path — unless a live base can
	// be carried over for the cost of an index remap. The guard depends
	// only on the candidate count and the (deterministic) base history,
	// keeping the choice deterministic, and both strategies are
	// bit-identical, so the committed sequence is unaffected. (probe
	// runs always take the delta path: they measure both strategies per
	// candidate.)
	const deltaMinCandidates = 3
	useDelta := o.probe != nil || (o.opts.DeltaEval == DeltaAuto && !o.deltaOff &&
		(len(cands) >= deltaMinCandidates || o.baseLive))
	if useDelta {
		// Incremental: carry the committed state's base over (or capture
		// it once, over the step's semi-dense list, so every candidate is
		// a two-index patch of it) and delta-evaluate each candidate
		// against that shared snapshot. Scoring only needs the utility, so
		// each delta runs in utility-only mode; the committed move's full
		// result comes from rebase, never from scoring.
		dense := o.buildStepBundles(cands)
		o.prepareBase(dense)
		o.evaluateCandidates(cands, dense, o.base)
		o.maybeLatchDeltaOff()
	} else {
		// Full evaluations: per-candidate positive lists, patched one
		// aggregate segment at a time. Zero-flow placeholders are
		// float-inert and only reindex the list monotonically, so both
		// strategies produce bit-identical candidate utilities.
		o.evaluateCandidates(cands, o.buildBundles(), nil)
	}

	bestU := uInit
	bestIdx := -1
	for i := range cands {
		if cands[i].utility > bestU+o.opts.MinGain {
			bestU = cands[i].utility
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false, nil
	}
	o.commit(cands[bestIdx])
	if useDelta {
		// Fold the committed move into the live base and hand the
		// committed allocation's evaluation to the pass loop — no
		// post-commit full evaluation, no next-step recapture.
		return true, o.rebase(cands[bestIdx])
	}
	// The allocation moved without the base: whatever it captured is
	// stale now.
	o.baseLive = false
	return true, nil
}

// prepareBase makes o.base capture the committed allocation over the
// dense list just built by buildStepBundles. A live base is carried over
// — untouched when the layout is identical (escalation retries),
// index-remapped when only the placeholder population changed — and only
// failing that does a full EvaluateBase run.
func (o *Optimizer) prepareBase(dense []flowmodel.Bundle) {
	o.ensureBase()
	if o.baseLive {
		if slices.Equal(o.basePath, o.densePath) && slices.Equal(o.baseSeg, o.denseSeg) {
			o.baseStats.Skips++
			return
		}
		if ok := o.remapBase(dense); ok {
			o.baseStats.Remaps++
			o.saveBaseLayout()
			return
		}
	}
	o.baseEval.EvaluateBase(dense, o.base)
	o.baseStats.Captures++
	o.baseLive = true
	o.saveBaseLayout()
}

// ensureBase lazily constructs the delta-base machinery, adopting
// Options.WarmBase (recycled storage, typically a previous run's
// Solution.FinalBase) for the snapshot when provided: its contents are
// stale and overwritten by the next capture — only the backing arrays
// are reused.
func (o *Optimizer) ensureBase() {
	if o.baseEval == nil {
		o.baseEval = o.model.NewEval()
	}
	if o.base == nil {
		if o.opts.WarmBase != nil {
			o.base, o.opts.WarmBase = o.opts.WarmBase, nil
		} else {
			o.base = &flowmodel.Base{}
		}
	}
	if o.altBase == nil {
		if o.opts.WarmBaseSpare != nil {
			o.altBase, o.opts.WarmBaseSpare = o.opts.WarmBaseSpare, nil
		} else {
			o.altBase = &flowmodel.Base{}
		}
	}
}

// remapBase translates the live base onto the current dense layout. The
// mapping is derived per aggregate by merging the old and new segments
// on path-set index (both are ascending subsets of the same path set);
// entries present on one side only must be inert placeholders, which
// RemapBase verifies.
func (o *Optimizer) remapBase(dense []flowmodel.Bundle) bool {
	if cap(o.oldIdxBuf) < len(dense) {
		o.oldIdxBuf = make([]int, len(dense))
	}
	oldIdx := o.oldIdxBuf[:len(dense)]
	for i := range o.aggs {
		oi, oEnd := o.baseSeg[i], o.baseSeg[i+1]
		for ni := o.denseSeg[i]; ni < o.denseSeg[i+1]; ni++ {
			for oi < oEnd && o.basePath[oi] < o.densePath[ni] {
				oi++ // dropped old entry; RemapBase verifies it was inert
			}
			if oi < oEnd && o.basePath[oi] == o.densePath[ni] {
				oldIdx[ni] = oi
				oi++
			} else {
				oldIdx[ni] = -1
			}
		}
	}
	if !o.baseEval.RemapBase(o.base, o.altBase, dense, oldIdx) {
		return false
	}
	o.base, o.altBase = o.altBase, o.base
	return true
}

// saveBaseLayout records the dense layout the live base captures.
func (o *Optimizer) saveBaseLayout() {
	o.basePath = append(o.basePath[:0], o.densePath...)
	o.baseSeg = append(o.baseSeg[:0], o.denseSeg...)
}

// rebase folds the just-committed candidate into the live base: the
// committed allocation is the step's dense list with the move's two-entry
// flow patch, so one incremental evaluation both produces the committed
// result (returned, on the base arena — valid until the arena's next
// use) and patches the base to capture it.
func (o *Optimizer) rebase(c candidate) *flowmodel.Result {
	buf := append(o.commitBuf[:0], o.denseBuf...)
	iFrom := o.denseSeg[c.agg] + c.from
	iTo := o.denseSeg[c.agg] + c.to
	buf[iFrom].Flows -= c.n
	buf[iTo].Flows += c.n
	o.commitBuf = buf
	if iFrom > iTo {
		iFrom, iTo = iTo, iFrom
	}
	changed := [2]int{iFrom, iTo}
	res, patched := o.baseEval.CommitDelta(o.base, buf, changed[:])
	if patched {
		o.baseStats.Rebases++
	} else {
		o.baseStats.Recaptures++
	}
	o.baseLive = true
	return res
}

// collectChunk is the sharded collection's work granule: contiguous runs
// of this many aggregates are assigned to collection goroutines round-
// robin. Small enough to balance skewed instances (most aggregates don't
// cross the link; the expensive ones cluster), large enough that the
// merge bookkeeping stays negligible.
const collectChunk = 16

// collectCandidates enumerates the step's trial moves without evaluating
// any of them, sharding the per-aggregate enumeration across up to
// Options.Workers goroutines. Chunks of collectChunk aggregates are
// assigned to shards statically (chunk c → shard c mod workers) and the
// shard outputs are merged back in global chunk order, so the candidate
// list — and every path-set mutation, which only ever touches the
// aggregate being enumerated — is identical to the serial scan's at any
// worker count. Genuinely new alternative paths are added to their
// aggregate's path set here (with zero flows — path sets only grow,
// §2.4), exactly as the serial trial loop did, so enumeration order and
// the path-set cap behave identically too.
func (o *Optimizer) collectCandidates(link graph.EdgeID, congested []graph.EdgeID, fraction float64) []candidate {
	o.cands = o.cands[:0]
	for _, l := range congested {
		o.congAll[l] = true
	}
	nChunks := (len(o.aggs) + collectChunk - 1) / collectChunk
	nw := o.opts.Workers
	if nw > nChunks {
		nw = nChunks
	}
	if nw <= 1 {
		o.growCollectors(1)
		col := o.collectors[0]
		col.cands = o.cands
		o.collectRange(col, 0, len(o.aggs), link, congested, fraction)
		o.cands = col.cands
		col.cands = nil
	} else {
		o.growCollectors(nw)
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			col := o.collectors[wi]
			col.cands = col.cands[:0]
			col.chunkEnd = col.chunkEnd[:0]
			wg.Add(1)
			go func(wi int, col *collector) {
				defer wg.Done()
				for c := wi; c < nChunks; c += nw {
					lo := c * collectChunk
					hi := min(lo+collectChunk, len(o.aggs))
					o.collectRange(col, lo, hi, link, congested, fraction)
					col.chunkEnd = append(col.chunkEnd, len(col.cands))
				}
			}(wi, col)
		}
		wg.Wait()
		// Index-ordered merge: global chunk order, whichever shard ran
		// each chunk.
		var mergeStart time.Time
		if o.tm != nil {
			mergeStart = time.Now()
		}
		for c := 0; c < nChunks; c++ {
			col := o.collectors[c%nw]
			k := c / nw
			lo := 0
			if k > 0 {
				lo = col.chunkEnd[k-1]
			}
			o.cands = append(o.cands, col.cands[lo:col.chunkEnd[k]]...)
		}
		if o.tm != nil {
			o.tm.CollectMergeSeconds.Observe(time.Since(mergeStart).Seconds())
		}
	}
	for _, l := range congested {
		o.congAll[l] = false
	}
	return o.cands
}

// collectRange enumerates candidates for aggregates [lo, hi) into the
// collector's list. Mutations are confined to the aggregates being
// enumerated (path-set growth) and the collector's own scratch; shared
// optimizer state — congAll, the matrix, the options — is read-only, so
// disjoint ranges may run concurrently.
func (o *Optimizer) collectRange(col *collector, lo, hi int, link graph.EdgeID, congested []graph.EdgeID, fraction float64) {
	for ai := lo; ai < hi; ai++ {
		st := &o.aggs[ai]
		if st.self {
			continue
		}
		// Find this aggregate's bundles crossing the link.
		crossing := col.crossingPaths(st, link)
		if len(crossing) == 0 {
			continue
		}
		alts := o.alternativesFor(col, ai, st, congested)
		if len(alts) == 0 {
			continue
		}
		agg := o.mat.Aggregate(traffic.AggregateID(ai))
		for _, from := range crossing {
			n := o.moveSize(agg.Flows, st.flows[from], fraction)
			if n <= 0 {
				continue
			}
			for _, alt := range alts {
				if alt.Equal(st.set.Path(from)) {
					continue
				}
				ti := st.set.IndexOf(alt)
				if ti < 0 {
					// Respect the path-set cap for genuinely new paths.
					if o.opts.MaxPathsPerAggregate > 0 &&
						st.set.Len() >= o.opts.MaxPathsPerAggregate {
						continue
					}
					if !st.set.Add(alt) {
						continue
					}
					ti = st.set.Len() - 1
					st.flows = append(st.flows, 0)
					st.delays = append(st.delays, o.model.Topology().PathDelay(alt))
				}
				col.cands = append(col.cands, candidate{agg: ai, from: from, to: ti, n: n})
			}
		}
	}
}

// growCollectors ensures at least n collection shards exist. Shard 0
// reuses the optimizer's generator; the rest get private ones
// (pathgen.Generator is not concurrency-safe).
func (o *Optimizer) growCollectors(n int) {
	if n < 1 {
		n = 1
	}
	nL := o.model.Topology().NumLinks()
	for len(o.collectors) < n {
		gen := o.gen
		if len(o.collectors) > 0 {
			g, err := pathgen.New(o.model.Topology(), o.opts.Policy)
			if err != nil {
				// New already validated this exact topology and policy.
				panic("core: pathgen.New failed for collection shard: " + err.Error())
			}
			gen = g
		}
		o.collectors = append(o.collectors, &collector{
			gen:       gen,
			congUsed:  make([]bool, nL),
			usedStamp: make([]uint32, nL),
		})
	}
}

// evaluateCandidates fills each candidate's utility, fanning the work out
// over up to Options.Workers goroutines. committed is the step's
// committed bundle list — the semi-dense one (o.denseSeg offsets) when
// base carries its captured evaluation for the delta path, the positive
// one (o.segStart offsets) when base is nil and every candidate runs a
// full evaluation. Workers only read committed, base and the aggregate
// states.
func (o *Optimizer) evaluateCandidates(cands []candidate, committed []flowmodel.Bundle, base *flowmodel.Base) {
	if o.tm != nil {
		o.tm.CandidatesEvaluated.Add(int64(len(cands)))
	}
	nw := o.opts.Workers
	if nw > len(cands) {
		nw = len(cands)
	}
	o.growWorkers(nw)
	if nw <= 1 {
		w := o.workers[0]
		for i := range cands {
			cands[i].utility = o.evalCandidate(w, &cands[i], committed, base)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		w := o.workers[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				cands[i].utility = o.evalCandidate(w, &cands[i], committed, base)
			}
		}()
	}
	wg.Wait()
}

// evalCandidate evaluates one trial move on the worker's private arena.
// With a base snapshot the trial list is the worker's persistent copy of
// the semi-dense committed list with the (from, to, n) flow patch at two
// fixed indices — the delta's changed set — and the evaluation is
// incremental and utility-only (scoring needs one float, not a finalized
// Result). The patch is reverted after the evaluation, so the buffer
// mirrors the committed list again for the worker's next candidate. Without a base the trial list is the positive committed
// list with the moving aggregate's segment rebuilt under the patch, run
// through a full water-filling. Either way the utility is bit-identical:
// placeholders are float-inert and only reindex the active bundles
// monotonically.
func (o *Optimizer) evalCandidate(w *worker, c *candidate, committed []flowmodel.Bundle, base *flowmodel.Base) float64 {
	if base == nil {
		return w.eval.Evaluate(o.patchCandidateSparse(w, c, committed)).NetworkUtility
	}
	buf := o.patchCandidate(w, c, committed)
	var u float64
	if o.probe != nil {
		u = o.probe(w, buf, w.changed[:], base)
	} else {
		u, _ = w.eval.EvaluateDeltaUtility(base, buf, w.changed[:])
	}
	o.revertCandidate(w, c)
	return u
}

// patchCandidate assembles the candidate's trial list in the worker's
// buffer — the semi-dense committed list with the (from, to, n) flow
// patch — and records the two patched indices in w.changed (ascending).
// The buffer persists across candidates: it is copied from the dense
// list only when stale for this step (first candidate after a
// buildStepBundles); otherwise the patch writes exactly two entries of a
// list revertCandidate restored to the committed layout after the
// previous candidate.
func (o *Optimizer) patchCandidate(w *worker, c *candidate, dense []flowmodel.Bundle) []flowmodel.Bundle {
	if w.syncGen != o.denseGen {
		w.buf = append(w.buf[:0], dense...)
		w.syncGen = o.denseGen
		if o.tm != nil {
			o.tm.TrialResyncs.Inc()
		}
	}
	buf := w.buf
	iFrom := o.denseSeg[c.agg] + c.from
	iTo := o.denseSeg[c.agg] + c.to
	buf[iFrom].Flows -= c.n
	buf[iTo].Flows += c.n
	if iFrom > iTo {
		iFrom, iTo = iTo, iFrom
	}
	w.changed[0], w.changed[1] = iFrom, iTo
	return buf
}

// revertCandidate undoes patchCandidate's two-entry flow patch, restoring
// the worker's buffer to the committed dense layout. Flow counts are
// integers, so the round-trip is exact.
func (o *Optimizer) revertCandidate(w *worker, c *candidate) {
	w.buf[o.denseSeg[c.agg]+c.from].Flows += c.n
	w.buf[o.denseSeg[c.agg]+c.to].Flows -= c.n
}

// patchCandidateSparse assembles the candidate's trial list for a full
// evaluation: the positive committed list with the moving aggregate's
// segment rebuilt under the (from, to, n) patch — the same list the
// serial mutate-evaluate-revert loop used to obtain by mutating state
// and rebuilding everything.
func (o *Optimizer) patchCandidateSparse(w *worker, c *candidate, committed []flowmodel.Bundle) []flowmodel.Bundle {
	st := &o.aggs[c.agg]
	segA, segB := o.segStart[c.agg], o.segStart[c.agg+1]
	buf := append(w.buf[:0], committed[:segA]...)
	for pi, f := range st.flows {
		if pi == c.from {
			f -= c.n
		} else if pi == c.to {
			f += c.n
		}
		if f <= 0 {
			continue
		}
		buf = append(buf, flowmodel.Bundle{
			Agg:   traffic.AggregateID(c.agg),
			Flows: f,
			Edges: st.set.Path(pi).Edges,
			Delay: st.delays[pi],
		})
	}
	buf = append(buf, committed[segB:]...)
	w.buf = buf
	return buf
}

// deltaMinCalls and deltaOffWorkFrac govern the DeltaAuto self-disable:
// once enough candidates have been delta-evaluated, estimate the
// incremental path's work as a fraction of full evaluations — affected
// fraction scaled by the expansion re-run rate, plus the fallback rate —
// and latch it off for the rest of the run when the estimate says the
// instance's components are too coupled to profit.
const (
	deltaMinCalls    = 256
	deltaOffWorkFrac = 0.5
)

// maybeLatchDeltaOff inspects the cumulative worker statistics after a
// delta-evaluated step and latches o.deltaOff when incremental
// evaluation is not paying — including the degenerate case where every
// call falls back because the instance is one tightly coupled component.
// Sums over the candidate set are identical at any worker count, so the
// latch point is deterministic.
func (o *Optimizer) maybeLatchDeltaOff() {
	if o.probe != nil {
		return // instrumented runs always measure the delta path
	}
	var s flowmodel.DeltaStats
	for _, w := range o.workers {
		s.Add(w.eval.DeltaStats())
	}
	if s.Calls < deltaMinCalls {
		return
	}
	var affected float64
	if s.ListBundles > 0 {
		affected = float64(s.AffectedBundles) / float64(s.ListBundles)
	}
	expand := float64(s.Expansions) / float64(s.Calls)
	fallback := float64(s.Fallbacks) / float64(s.Calls)
	if affected*(1+expand)+fallback > deltaOffWorkFrac {
		o.deltaOff = true
	}
}

// growWorkers ensures at least n evaluator workers exist.
func (o *Optimizer) growWorkers(n int) {
	if n < 1 {
		n = 1
	}
	for len(o.workers) < n {
		o.workers = append(o.workers, &worker{eval: o.model.NewEval()})
	}
}

// crossingPaths returns the path indices of st whose path uses the link
// and currently carries flows. The returned slice is the collector's
// scratch, valid until the next call.
func (col *collector) crossingPaths(st *aggState, link graph.EdgeID) []int {
	col.crossBuf = col.crossBuf[:0]
	for pi, f := range st.flows {
		if f <= 0 {
			continue
		}
		if st.set.Path(pi).Contains(link) {
			col.crossBuf = append(col.crossBuf, pi)
		}
	}
	return col.crossBuf
}

// alternativesFor computes the §2.4 trio for an aggregate given the
// current congestion set, on the given collection shard's generator and
// scratch.
func (o *Optimizer) alternativesFor(col *collector, ai int, st *aggState, congested []graph.EdgeID) []graph.Path {
	// Mark the links the aggregate currently uses: a fresh epoch
	// invalidates the previous aggregate's marks, so the cost scales with
	// the aggregate's path lengths, not the topology size.
	col.usedEpoch++
	if col.usedEpoch == 0 { // epoch wrapped: old stamps would alias it
		clear(col.usedStamp)
		col.usedEpoch = 1
	}
	for pi, f := range st.flows {
		if f <= 0 {
			continue
		}
		for _, e := range st.set.Path(pi).Edges {
			col.usedStamp[e] = col.usedEpoch
		}
	}
	// congUsed = congested ∩ used; find the most oversubscribed used link
	// (the list is already sorted by oversubscription). The marks are
	// unset from the same list after the pathgen call.
	most := graph.EdgeID(-1)
	for _, l := range congested {
		if col.usedStamp[l] == col.usedEpoch {
			col.congUsed[l] = true
			if most < 0 {
				most = l
			}
		}
	}
	agg := o.mat.Aggregate(traffic.AggregateID(ai))
	req := pathgen.Request{
		Src: agg.Src, Dst: agg.Dst,
		CongestedAll:  o.congAll,
		CongestedUsed: col.congUsed,
		MostCongested: most,
	}
	alts := col.gen.Alternatives(req)
	for _, l := range congested {
		col.congUsed[l] = false
	}

	var paths []graph.Path
	add := func(p graph.Path, ok bool) {
		if !ok {
			return
		}
		for _, q := range paths {
			if q.Equal(p) {
				return
			}
		}
		paths = append(paths, p)
	}
	switch o.opts.AltMode {
	case AltGlobalOnly:
		add(alts.Global, alts.HasGlobal)
	case AltLocalOnly:
		add(alts.Local, alts.HasLocal)
	case AltLinkLocalOnly:
		add(alts.LinkLocal, alts.HasLinkLocal)
	default:
		add(alts.Global, alts.HasGlobal)
		add(alts.Local, alts.HasLocal)
		add(alts.LinkLocal, alts.HasLinkLocal)
	}
	return paths
}

// moveSize computes N (Listing 2 line 3): whole bundles for small
// aggregates, a fraction of the aggregate otherwise, never more than the
// source bundle holds.
func (o *Optimizer) moveSize(aggFlows, bundleFlows int, fraction float64) int {
	if bundleFlows <= 0 {
		return 0
	}
	if aggFlows <= o.opts.SmallAggregateFlows {
		return bundleFlows
	}
	n := int(math.Ceil(fraction * float64(aggFlows)))
	if n < 1 {
		n = 1
	}
	if n > bundleFlows {
		n = bundleFlows
	}
	return n
}

// commit permanently applies a candidate move. Its target path joined the
// aggregate's path set during collection.
func (o *Optimizer) commit(c candidate) {
	st := &o.aggs[c.agg]
	st.flows[c.from] -= c.n
	st.flows[c.to] += c.n
}

func (o *Optimizer) trace(s Snapshot) {
	if o.opts.Trace != nil {
		o.opts.Trace(s)
	}
}

// publishDeltaStats folds the workers' cumulative incremental-evaluation
// counters into the live registry, adding only the growth since the
// previous publish. Called once per committed step and once at run end;
// only reads worker state, so it never perturbs the move sequence.
func (o *Optimizer) publishDeltaStats() {
	var s flowmodel.DeltaStats
	for _, w := range o.workers {
		s.Add(w.eval.DeltaStats())
	}
	o.tm.DeltaCalls.Add((s.Calls - s.UtilityOnlyCalls) - (o.pubDelta.Calls - o.pubDelta.UtilityOnlyCalls))
	o.tm.UtilityOnlyCalls.Add(s.UtilityOnlyCalls - o.pubDelta.UtilityOnlyCalls)
	o.tm.DeltaFallbacks.Add(s.Fallbacks - o.pubDelta.Fallbacks)
	o.tm.DeltaExpansions.Add(s.Expansions - o.pubDelta.Expansions)
	o.pubDelta = s
}

// Run is the package-level convenience: build an optimizer over model with
// opts and run it under ctx (see Optimizer.Run for the cancellation and
// deadline semantics).
func Run(ctx context.Context, model *flowmodel.Model, opts Options) (*Solution, error) {
	o, err := New(model, opts)
	if err != nil {
		return nil, err
	}
	return o.Run(ctx)
}

// RunWarm reuses a prepared optimizer for a fresh run warm-started from
// initial (nil restarts from the shortest-path placement): the worker
// arenas, path generator and scratch persist across calls — the shape a
// long-lived Session keeps. The warm-start contract is
// Options.InitialBundles'.
func (o *Optimizer) RunWarm(ctx context.Context, initial []flowmodel.Bundle) (*Solution, error) {
	saved := o.opts.InitialBundles
	o.opts.InitialBundles = initial
	sol, err := o.Run(ctx)
	o.opts.InitialBundles = saved
	return sol, err
}
