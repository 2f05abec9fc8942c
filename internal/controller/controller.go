// Package controller emulates the serverless platform's Controller (§2,
// Fig. 1) driving a scheduling algorithm over a workload trace: it owns the
// AFW job queues, scans them round-robin, invokes the scheduler's
// configuration planning and invoker placement, manages the recheck list
// with forced minimum-configuration dispatch (§3.1), applies cold/warm
// starts, EWMA pre-warming (§4) and data-locality transfer costs, and
// collects the evaluation metrics.
package controller

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/prewarm"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/simulate"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// DefaultQuantum is the controller's default scheduling-pass cadence
// (§3.1's round-robin scan runs at most every quantum).
const DefaultQuantum = 2 * time.Millisecond

// Config shapes one emulation run.
type Config struct {
	// Cluster is the invoker fleet shape (defaults to the paper's
	// 16 × (16 vCPU + 7 vGPU)).
	Cluster cluster.Config
	// Space is the configuration space (defaults to the 256-config space).
	Space profile.Space
	// Pricing is the billing model (defaults to §4.1 prices).
	Pricing pricing.Model
	// Noise is the performance-variation model.
	Noise profile.Noise
	// Registry holds the function profiles (defaults to Table 3).
	Registry *profile.Registry
	// Apps are the applications receiving traffic.
	Apps []*workflow.App
	// SLOLevel fixes each app's objective as a multiple of its baseline
	// latency L (§4.1).
	SLOLevel workflow.SLOLevel

	// Quantum is the minimum gap between controller scheduling passes
	// (round-robin scan cadence). Default 2 ms.
	Quantum time.Duration
	// RecheckLimit is the number of recheck rounds before a queue is
	// force-dispatched at the minimum configuration (§3.1, default 3).
	RecheckLimit int
	// WarmupFraction excludes the first fraction of requests from SLO and
	// cost metrics (the measurement warm-up window). Default 0.1.
	WarmupFraction float64
	// WarmupTime additionally excludes instances arriving before this
	// simulated time, so the cold-start and batching-equilibrium
	// transient never pollutes steady-state measurements. Default 50 s.
	WarmupTime time.Duration
	// DisablePrewarm turns the EWMA pre-warmer off.
	DisablePrewarm bool
	// DisablePreload skips sizing the initial warm pools from the trace's
	// arrival rates. By default the platform starts in steady state — the
	// functions have been serving this workload, so pools match demand
	// (Little's law) — and the evaluation measures scheduling quality
	// rather than a one-off cold-start ramp. All schedulers share the
	// preloading (§4.2: identical pre-warming policy across comparisons).
	DisablePreload bool
	// PrewarmAlpha is the EWMA smoothing factor (default 0.3).
	PrewarmAlpha float64

	// DeferFraction bounds how long a queue head may wait for a busy or
	// warming container before accepting a cold start, as a fraction of
	// the application SLO (default 0.25). Cold starts run seconds while
	// tasks run milliseconds, so briefly waiting for a container — during
	// which jobs batch up — beats spawning one.
	DeferFraction float64

	// PlanCache enables the scheduler's optional memoized plan search
	// when the scheduler supports one (sched.PlanCaching — ESG's plan
	// cache). Schedulers without an optional cache run unchanged: the
	// baselines' plan memo is structural and always on, so for them this
	// flag is a no-op and their hit/cold counters are reported with the
	// run's metrics either way.
	PlanCache bool
	// PlanCacheSize bounds the number of cached plans (0 = default).
	PlanCacheSize int
	// PlanCacheGranularity is the target-latency bucket width of the
	// cache key (0 = default).
	PlanCacheGranularity time.Duration

	// StreamMetrics replaces the exact stored-sample metrics recorder with
	// the streaming sketch recorder: per-sample series (Records, Overheads,
	// per-app Latencies) are folded into O(1)-memory accumulators, so a
	// run's metrics footprint is independent of its length. Percentiles
	// come from a deterministic quantile sketch (≈1% relative error);
	// counts, rates, costs and means stay exact. Default off — the exact
	// recorder's output is byte-identical to historical runs.
	StreamMetrics bool

	// Overhead selects how scheduling overhead is charged.
	Overhead      sched.OverheadMode
	FixedOverhead time.Duration

	// DrainTimeout caps the run after the last arrival (safety valve;
	// default 5 minutes of simulated time).
	DrainTimeout time.Duration
	// Seed drives the noise streams.
	Seed uint64

	// Faults declares the run's failure model (invoker MTBF/MTTR churn,
	// transient task failures, cold-start failures, stragglers). The zero
	// value injects nothing and leaves every hot path untouched; a
	// non-zero spec drives all randomness from dedicated streams derived
	// from Seed, so fault schedules replay bit-identically.
	Faults fault.Spec
	// RetryLimit is the per-job attempt budget under fault injection: a
	// job whose task failed is re-enqueued with backoff until it has
	// failed RetryLimit times, then dropped (its workflow instance is
	// abandoned). Default 4; negative disables retries entirely.
	RetryLimit int
	// RetryBackoff and RetryBackoffCap shape the capped exponential
	// backoff before a failed job re-enqueues: attempt n waits
	// min(RetryBackoffCap, RetryBackoff << (n-1)) scaled by a
	// deterministic jitter in [0.5, 1). Defaults 25ms and 1s.
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration
	// StragglerTimeout is the straggler re-dispatch threshold as a
	// multiple of a task's expected time (cold start + transfer +
	// profiled execution). A task still running past the threshold is
	// aborted and its jobs re-enqueued. Only active under fault
	// injection; default 4 — safely above the ±3σ noise envelope, so
	// only genuinely straggling tasks are ever killed.
	StragglerTimeout float64
}

// Defaulted fills zero values with the paper's defaults and returns the
// completed config.
func (c Config) Defaulted() Config {
	if c.Cluster.Nodes == 0 && len(c.Cluster.NodeShapes) == 0 {
		c.Cluster = cluster.DefaultConfig()
	}
	if c.Space.Size() == 0 {
		c.Space = profile.DefaultSpace()
	}
	if c.Pricing.CPURate == 0 && c.Pricing.GPURate == 0 {
		c.Pricing = pricing.Default()
	}
	if c.Registry == nil {
		c.Registry = profile.Table3Registry()
	}
	if len(c.Apps) == 0 {
		c.Apps = workflow.EvaluationApps()
	}
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.RecheckLimit <= 0 {
		c.RecheckLimit = 3
	}
	if c.WarmupFraction < 0 {
		c.WarmupFraction = 0
	} else if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.1
	}
	if c.PrewarmAlpha <= 0 {
		c.PrewarmAlpha = prewarm.DefaultAlpha
	}
	if c.DeferFraction <= 0 {
		c.DeferFraction = 0.25
	}
	if c.WarmupTime == 0 {
		c.WarmupTime = 50 * time.Second
	} else if c.WarmupTime < 0 {
		c.WarmupTime = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Minute
	}
	c.Faults = c.Faults.Defaulted()
	if c.RetryLimit == 0 {
		c.RetryLimit = 4
	} else if c.RetryLimit < 0 {
		c.RetryLimit = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = time.Second
	}
	if c.StragglerTimeout <= 1 {
		c.StragglerTimeout = 4
	}
	return c
}

// Controller runs one emulation.
type Controller struct {
	cfg       Config
	scheduler sched.Scheduler
	// source streams the run's arrivals. The controller pulls the next
	// request from inside the previous arrival's event, so a run never
	// materializes its trace — memory is bounded by in-flight work, not
	// request count. Materialized traces arrive wrapped in a TraceSource.
	source workload.Source
	// expectSpan/expectPerApp cache source.Expect(): the expected arrival
	// span (exact for traces) anchors the drain deadline and the outage
	// horizon before the first event fires; the per-app counts size the
	// initial warm pools.
	expectSpan   time.Duration
	expectPerApp []float64
	// arrivalSeq is the first of the source.Len() tie-break sequence
	// numbers reserved for arrivals: arrival i schedules at seq
	// arrivalSeq+i, exactly as if the whole trace had been scheduled up
	// front, so streaming runs replay the historical event order.
	arrivalSeq uint64
	warmupCut  int

	engine    *simulate.Engine
	env       *sched.Env
	clu       *cluster.Cluster
	queues    *queue.Set
	collector *metrics.Collector
	noiseSrc  *rng.Source

	// Per-queue pre-warm state.
	predictors  []*prewarm.Predictor
	planners    []*prewarm.PoolPlanner
	lastInvoker []int
	// fnQueues maps an interned FnID to the queues invoking it (pool
	// demand for a function sums over them).
	fnQueues [][]int
	// fnProfiles resolves interned FnIDs to their registry profiles, so
	// the dispatch hot path never probes the registry map.
	fnProfiles []*profile.Function

	// Round-robin cursor and recheck list.
	cursor    int
	recheck   []*queue.AFW
	inRecheck []bool // indexed by queue ID

	// jobBufs recycles the job slices handed from TakeAppend to task
	// completion, so steady-state dispatch reuses storage instead of
	// allocating per task.
	jobBufs [][]*queue.Job

	passPending bool
	lastPass    time.Duration

	// stateVersion increments whenever resources free up or containers
	// warm — the only events that can unblock a waiting queue. Retries
	// skip the (expensive) re-planning when nothing changed.
	stateVersion uint64
	lastAttempt  []recheckAttempt
	lastOutcome  []dispatchStatus

	running   int
	deadline  time.Duration
	truncated bool

	// Instance lifecycle counters and pools. IDs stay unique and monotonic
	// (instMade), while Done instances recycle through instPool — a
	// completed instance has no live reference anywhere, so steady-state
	// memory holds only the in-flight population. Failed instances are
	// deliberately never recycled: their sibling jobs may still drain.
	// unfinished at the end of the run is instMade - instDone - instFailed.
	instMade   int
	instDone   int
	instFailed int
	instPool   []*queue.Instance
	// instLivePeak tracks the high-water in-flight instance count — the
	// number the streaming tier's O(1)-memory claim is about.
	instLivePeak int
	// jobPool recycles Job structs the same way (arrivals and successor
	// enqueues draw from it; completed, dropped and orphaned jobs return).
	jobPool []*queue.Job

	// faults is the run's fault injector, nil when the spec injects
	// nothing — the nil check keeps every fault branch off the
	// zero-fault hot path. flights tracks in-flight tasks per invoker
	// (only under fault injection) so a crash can abort and re-enqueue
	// them; flightPool recycles the tracking structs.
	faults     *fault.Injector
	flights    [][]*flight
	flightPool []*flight
}

// New prepares a run of scheduler s over trace tr.
func New(cfg Config, s sched.Scheduler, tr *workload.Trace) (*Controller, error) {
	return NewSource(cfg, s, workload.NewTraceSource(tr))
}

// NewSource prepares a run of scheduler s over a streaming request source.
// A TraceSource-driven run is byte-identical to the equivalent New run; a
// generated Stream never materializes, so request counts in the millions
// cost no memory.
func NewSource(cfg Config, s sched.Scheduler, src workload.Source) (*Controller, error) {
	cfg = cfg.Defaulted()
	clu, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("controller: no applications")
	}
	oracle := profile.NewOracle(cfg.Registry, cfg.Space, cfg.Pricing)
	slos := make([]time.Duration, len(cfg.Apps))
	for i, app := range cfg.Apps {
		if err := app.Validate(); err != nil {
			return nil, err
		}
		slos[i] = workflow.SLOFor(app, cfg.SLOLevel, cfg.Registry)
	}
	env := &sched.Env{
		Registry:      cfg.Registry,
		Oracle:        oracle,
		Cluster:       clu,
		Apps:          cfg.Apps,
		SLOs:          slos,
		Noise:         cfg.Noise,
		Overhead:      cfg.Overhead,
		FixedOverhead: cfg.FixedOverhead,
	}
	qs := queue.NewSet(cfg.Apps)
	qs.Bind(clu)
	// Interning every registry function up front fixes the FnID space for
	// the run (queue functions first, then the remaining registry names)
	// and lets per-function state live in flat slices.
	for _, name := range cfg.Registry.Names() {
		clu.Intern(name)
	}
	c := &Controller{
		cfg:         cfg,
		scheduler:   s,
		source:      src,
		engine:      simulate.New(),
		env:         env,
		clu:         clu,
		queues:      qs,
		collector:   metrics.NewCollector(s.Name(), src.Level().String(), cfg.SLOLevel.String(), cfg.Apps),
		noiseSrc:    rng.New(cfg.Seed ^ 0xE5C9DD4B1A2F3C71),
		predictors:  make([]*prewarm.Predictor, len(qs.Queues)),
		lastInvoker: make([]int, len(qs.Queues)),
		inRecheck:   make([]bool, len(qs.Queues)),
	}
	c.expectSpan, c.expectPerApp = src.Expect()
	if cfg.StreamMetrics {
		c.collector.SetRecorder(metrics.NewSketchRecorder())
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() {
		c.faults = fault.New(cfg.Faults, cfg.Seed)
		c.flights = make([][]*flight, len(clu.Invokers))
	}
	if cfg.PlanCache {
		if pc, ok := s.(sched.PlanCaching); ok {
			pc.EnablePlanCache(cfg.PlanCacheSize, cfg.PlanCacheGranularity)
		}
	}
	c.planners = make([]*prewarm.PoolPlanner, len(qs.Queues))
	c.fnQueues = make([][]int, clu.NumFns())
	c.fnProfiles = make([]*profile.Function, clu.NumFns())
	for id := range c.fnProfiles {
		c.fnProfiles[id] = cfg.Registry.MustLookup(clu.FnName(cluster.FnID(id)))
	}
	c.lastAttempt = make([]recheckAttempt, len(qs.Queues))
	c.lastOutcome = make([]dispatchStatus, len(qs.Queues))
	for i := range c.lastOutcome {
		c.lastOutcome[i] = dispatched // "no failed attempt yet"
	}
	for i := range c.predictors {
		c.predictors[i] = prewarm.NewPredictor(cfg.PrewarmAlpha)
		c.planners[i] = prewarm.NewPoolPlanner(cfg.PrewarmAlpha)
		c.lastInvoker[i] = -1
		q := qs.Queues[i]
		c.fnQueues[q.FnID] = append(c.fnQueues[q.FnID], q.ID)
	}
	return c, nil
}

// Run executes the emulation and returns its metrics.
func Run(cfg Config, s sched.Scheduler, tr *workload.Trace) (*metrics.Result, error) {
	c, err := New(cfg, s, tr)
	if err != nil {
		return nil, err
	}
	return c.Execute(), nil
}

// RunSource executes one emulation over a streaming request source.
func RunSource(cfg Config, s sched.Scheduler, src workload.Source) (*metrics.Result, error) {
	c, err := NewSource(cfg, s, src)
	if err != nil {
		return nil, err
	}
	return c.Execute(), nil
}

// Execute runs all events to completion and finalizes metrics.
func (c *Controller) Execute() *metrics.Result {
	c.seedWarmPools()
	c.warmupCut = int(c.cfg.WarmupFraction * float64(c.source.Len()))
	// Reserve one tie-break sequence slot per request before anything else
	// is scheduled: pulled-on-demand arrivals then land on exactly the
	// sequence numbers the historical pre-materialized loop gave them, so
	// the whole event order — and every artifact byte — is unchanged.
	c.arrivalSeq = c.engine.ReserveSeq(uint64(c.source.Len()))
	// Provisional deadline from the expected span — exact for traces, an
	// analytic expectation for generators (the drain timeout dwarfs any
	// expectation error). The last arrival pins it to the realized span.
	c.deadline = c.expectSpan + c.cfg.DrainTimeout
	c.scheduleNextArrival()
	c.scheduleOutages()
	c.engine.Run()

	// Failed instances were abandoned, not left behind by the drain
	// deadline: they report through the fault counters instead.
	unfinished := c.instMade - c.instDone - c.instFailed
	utilCPU, utilGPU := c.clu.Utilization(c.engine.Now())
	cold, warm := 0, 0
	for _, inv := range c.clu.Invokers {
		cold += inv.ColdStarts
		warm += inv.WarmStarts
	}
	if pc, ok := c.scheduler.(sched.PlanCaching); ok {
		c.collector.RecordCacheStats(pc.PlanCacheStats())
	}
	res := c.collector.Finalize(cold, warm, unfinished, utilCPU, utilGPU, c.engine.Now())
	res.InstanceLivePeak = c.instLivePeak
	res.Truncated = c.truncated
	return res
}

// Truncated reports whether the run hit the drain deadline with work left.
func (c *Controller) Truncated() bool { return c.truncated }

// InstanceLivePeak returns the high-water count of in-flight instances —
// the number that bounds a streaming run's memory, independent of the
// request count.
func (c *Controller) InstanceLivePeak() int { return c.instLivePeak }

// scheduleNextArrival pulls one request from the source and schedules its
// arrival on its reserved tie-break slot; the arrival event pulls the next
// request in turn, so only one pending arrival exists at any time. When the
// source drains, the deadline pins to the realized span (for traces this is
// the value the provisional deadline already had).
func (c *Controller) scheduleNextArrival() {
	req, ok := c.source.Next()
	if !ok {
		c.deadline = c.engine.Now() + c.cfg.DrainTimeout
		return
	}
	warmup := req.ID < c.warmupCut || req.At < c.cfg.WarmupTime
	c.engine.AtSeq(req.At, c.arrivalSeq+uint64(req.ID), func() {
		c.scheduleNextArrival()
		c.arrive(req, warmup)
	})
}

// arrive admits one application request.
func (c *Controller) arrive(req workload.Request, warmup bool) {
	app := c.cfg.Apps[req.App]
	inst := c.getInstance(req.App, app)
	inst.Warmup = warmup
	entry := app.Entry()
	j := c.getJob()
	j.Instance = inst
	j.Stage = entry
	j.EnqueuedAt = c.engine.Now()
	c.queues.Get(req.App, entry).Push(j)
	c.requestPass()
}

// getInstance returns a recycled (or fresh) instance with the next
// monotonic ID. IDs never repeat, so attempt keys stay collision-free
// across recycling.
func (c *Controller) getInstance(appIndex int, app *workflow.App) *queue.Instance {
	id := c.instMade
	c.instMade++
	if live := c.instMade - c.instDone - c.instFailed; live > c.instLivePeak {
		c.instLivePeak = live
	}
	if n := len(c.instPool); n > 0 {
		inst := c.instPool[n-1]
		c.instPool[n-1] = nil
		c.instPool = c.instPool[:n-1]
		inst.Reinit(id, appIndex, app, c.engine.Now(), c.env.SLOs[appIndex])
		return inst
	}
	return queue.NewInstance(id, appIndex, app, c.engine.Now(), c.env.SLOs[appIndex])
}

// getJob returns a recycled (or fresh) zeroed Job.
func (c *Controller) getJob() *queue.Job {
	if n := len(c.jobPool); n > 0 {
		j := c.jobPool[n-1]
		c.jobPool[n-1] = nil
		c.jobPool = c.jobPool[:n-1]
		*j = queue.Job{}
		return j
	}
	return &queue.Job{}
}

// putJob recycles a consumed job (completed, dropped, or orphaned by its
// instance's abandonment).
func (c *Controller) putJob(j *queue.Job) {
	j.Instance = nil
	c.jobPool = append(c.jobPool, j)
}

// requestPass schedules a controller scheduling pass, rate-limited to one
// per quantum.
func (c *Controller) requestPass() {
	if c.passPending {
		return
	}
	if c.engine.Now() > c.deadline {
		c.truncated = true
		return
	}
	c.passPending = true
	at := c.lastPass + c.cfg.Quantum
	if at < c.engine.Now() {
		at = c.engine.Now()
	}
	c.engine.At(at, c.runPass)
}

// runPass scans all AFW queues round-robin, scheduling each ready queue and
// retrying the recheck list after every queue, per §3.1. The recheck list
// is also retried once up front so that passes triggered purely by task
// completions make progress even when every non-empty queue is listed.
func (c *Controller) runPass() {
	c.passPending = false
	c.lastPass = c.engine.Now()
	c.retryRecheck()
	n := len(c.queues.Queues)
	for i := 0; i < n; i++ {
		q := c.queues.Queues[(c.cursor+i)%n]
		if q.Empty() || c.inRecheck[q.ID] {
			continue
		}
		c.processQueue(q)
		c.retryRecheck()
	}
	c.cursor = (c.cursor + 1) % n
	// Rechecked queues only make progress on passes; keep ticking while
	// any queue waits for resources.
	if len(c.recheck) > 0 {
		c.requestPass()
	}
}

// dispatchStatus is the outcome of attempting one plan.
type dispatchStatus int

const (
	// dispatched: a task was committed.
	dispatched dispatchStatus = iota
	// deferred: a placement exists but would cold-start while a container
	// is busy or warming — the queue waits briefly instead (jobs batch up
	// meanwhile).
	deferred
	// blocked: no candidate configuration fits on any invoker.
	blocked
)

// processQueue schedules tasks from one queue until it empties, defers for
// a container, or no candidate configuration fits on any invoker. A queue
// whose previous attempt deferred is not re-planned until something that
// could unblock it changes (new jobs, freed resources, warmed containers,
// or the defer window expiring) — re-planning an unchanged situation burns
// scheduler time for an identical answer.
func (c *Controller) processQueue(q *queue.AFW) {
	for !q.Empty() {
		key := c.attemptKey(q)
		if c.lastOutcome[q.ID] == deferred && key == c.lastAttempt[q.ID] && !c.deferWindowExpired(q) {
			return
		}
		plan := c.scheduler.Plan(c.env, q, c.engine.Now())
		c.collector.RecordPlan(plan.Overhead, plan.PrePlanned, plan.ConfigMiss)
		outcome := c.tryDispatch(q, plan, false)
		c.lastAttempt[q.ID] = key
		c.lastOutcome[q.ID] = outcome
		switch outcome {
		case dispatched:
			continue
		case deferred:
			return // completions and warm-ups re-trigger passes
		case blocked:
			c.addRecheck(q)
			return
		}
	}
}

// deferWindowExpired reports whether the queue head has waited past the
// defer cap, so a cold dispatch must be re-attempted even though nothing
// else changed.
func (c *Controller) deferWindowExpired(q *queue.AFW) bool {
	cap := time.Duration(c.cfg.DeferFraction * float64(c.env.SLOs[q.AppIndex]))
	return q.OldestWait(c.engine.Now()) >= cap
}

// tryDispatch walks the plan's configuration priority queue and dispatches
// the first candidate that fits on an invoker. A candidate that would cold-
// start while containers of the function are busy or warming is deferred
// instead (up to DeferFraction of the SLO), batching the queue meanwhile;
// a background warm-up is kicked off so sustained pressure grows the pool.
func (c *Controller) tryDispatch(q *queue.AFW, plan sched.Plan, forced bool) dispatchStatus {
	now := c.engine.Now()
	sawDefer := false
	for _, cfg := range plan.Candidates {
		if cfg.Batch < 1 || cfg.Batch > q.Len() {
			continue
		}
		jobs := q.Peek(cfg.Batch)
		inv := c.scheduler.Place(c.env, q, jobs, cfg, now)
		if inv == nil {
			continue
		}
		if !forced && c.shouldDefer(q, inv) {
			sawDefer = true
			c.scaleOutWarm(q.FnID, inv)
			continue
		}
		c.dispatch(q, cfg, inv, plan.Overhead, forced)
		return dispatched
	}
	if sawDefer {
		return deferred
	}
	return blocked
}

// shouldDefer reports whether dispatching on inv now (a cold start) should
// wait for a busy or warming container instead.
func (c *Controller) shouldDefer(q *queue.AFW, inv *cluster.Invoker) bool {
	now := c.engine.Now()
	if inv.HasIdleWarm(q.FnID, now) {
		return false // warm start: go
	}
	if !c.clu.HasBusyOrWarming(q.FnID) {
		return false // nothing to wait for: cold start is the only path
	}
	cap := time.Duration(c.cfg.DeferFraction * float64(c.env.SLOs[q.AppIndex]))
	return q.OldestWait(now) < cap
}

// scaleOutWarm starts one background container warm-up for fn on inv when
// none is already in flight there — the pre-warming proxy's response to
// sustained container pressure.
func (c *Controller) scaleOutWarm(fn cluster.FnID, inv *cluster.Invoker) {
	if c.cfg.DisablePrewarm || inv.Warming(fn) {
		return
	}
	cold := c.fnProfiles[fn].ColdStart
	invID := inv.ID
	ep := inv.Epoch()
	inv.BeginWarming(fn)
	c.engine.After(cold, func() {
		target := c.clu.Invokers[invID]
		if target.Epoch() != ep {
			return // the invoker crashed meanwhile; the pre-warm died with it
		}
		target.FinishWarming(fn, c.engine.Now())
		c.requestPass()
	})
}

// addRecheck puts a queue on the recheck list (§3.1).
func (c *Controller) addRecheck(q *queue.AFW) {
	if c.inRecheck[q.ID] {
		return
	}
	c.inRecheck[q.ID] = true
	q.RecheckRounds = 0
	c.recheck = append(c.recheck, q)
}

// recheckAttempt remembers the platform/queue state of a queue's last
// failed dispatch attempt so identical retries can be skipped.
type recheckAttempt struct {
	version uint64
	qlen    int
	headID  int
}

// attemptKey captures the state relevant to a dispatch attempt.
func (c *Controller) attemptKey(q *queue.AFW) recheckAttempt {
	head := -1
	if j := q.Oldest(); j != nil {
		head = j.Instance.ID
	}
	return recheckAttempt{version: c.stateVersion, qlen: q.Len(), headID: head}
}

// retryRecheck re-attempts every queue on the recheck list; queues stuck
// past the recheck limit are force-dispatched with the scheduler's minimum
// configuration to guarantee progress (§3.1).
func (c *Controller) retryRecheck() {
	if len(c.recheck) == 0 {
		return
	}
	kept := c.recheck[:0]
	for _, q := range c.recheck {
		if q.Empty() {
			c.dropRecheck(q)
			continue
		}
		key := c.attemptKey(q)
		if key == c.lastAttempt[q.ID] && !c.deferWindowExpired(q) {
			// Nothing that could unblock the queue has changed since the
			// last failed attempt: skip the re-plan. Recheck rounds only
			// advance on genuine attempts, so the forced minimum dispatch
			// fires after the cluster has really changed three times and
			// still had no room (§3.1), not after three idle polls.
			kept = append(kept, q)
			continue
		}
		c.lastAttempt[q.ID] = key
		plan := c.scheduler.Plan(c.env, q, c.engine.Now())
		c.collector.RecordPlan(plan.Overhead, plan.PrePlanned, plan.ConfigMiss)
		outcome := c.tryDispatch(q, plan, false)
		c.lastOutcome[q.ID] = outcome
		switch outcome {
		case dispatched:
			c.dropRecheck(q)
			// Keep draining outside the recheck path on the next pass.
			c.requestPass()
			continue
		case deferred:
			// Waiting on a container, not on resources: stay listed
			// without burning recheck rounds (a forced minimum dispatch
			// would cold-start, defeating the wait).
			kept = append(kept, q)
			continue
		}
		q.RecheckRounds++
		if q.RecheckRounds >= c.cfg.RecheckLimit {
			min := c.scheduler.MinConfig(c.env, q)
			// Batch as much of the backlog as the space allows: the
			// forced dispatch exists to guarantee progress, and a larger
			// batch is strictly more progress for the same resources.
			min.Batch = c.cfg.Space.ClampBatch(q.Len())
			forcedPlan := sched.Plan{Candidates: []profile.Config{min}}
			if c.tryDispatch(q, forcedPlan, true) == dispatched {
				c.dropRecheck(q)
				c.requestPass()
				continue
			}
			// Not even the minimum configuration fits: stay listed and
			// retry when resources free up.
		}
		kept = append(kept, q)
	}
	c.recheck = kept
}

func (c *Controller) dropRecheck(q *queue.AFW) {
	c.inRecheck[q.ID] = false
	q.RecheckRounds = 0
}

// getJobBuf returns a recycled job slice (or nil, which TakeAppend grows).
func (c *Controller) getJobBuf() []*queue.Job {
	if n := len(c.jobBufs); n > 0 {
		buf := c.jobBufs[n-1]
		c.jobBufs = c.jobBufs[:n-1]
		return buf[:0]
	}
	return nil
}

// putJobBuf recycles a job slice once its task completed.
func (c *Controller) putJobBuf(buf []*queue.Job) {
	for i := range buf {
		buf[i] = nil
	}
	c.jobBufs = append(c.jobBufs, buf)
}

// dispatch commits a task: claims resources and a container, charges cold
// start, data transfer and scheduling overhead, samples the noisy execution
// time, and schedules completion. Under fault injection the task's fate is
// drawn here too — cold-start failure, transient failure, straggler
// slowdown (with a timeout-based re-dispatch) — so every outcome is fixed
// in dispatch order and replays deterministically.
func (c *Controller) dispatch(q *queue.AFW, cfg profile.Config, inv *cluster.Invoker, overhead time.Duration, forced bool) {
	now := c.engine.Now()
	jobs := q.TakeAppend(c.getJobBuf(), cfg.Batch)
	fn := c.fnProfiles[q.FnID]
	res := cfg.Resources()

	if err := inv.Acquire(res, now); err != nil {
		panic(err) // Place guaranteed fit; a failure is a scheduler bug
	}
	warm := inv.StartTask(q.FnID, now)
	var coldPenalty time.Duration
	if !warm {
		coldPenalty = fn.ColdStart
	}
	var transfer time.Duration
	if c.clu.Fabric != nil {
		transfer = c.modelTransfer(q, jobs, inv, now)
	} else {
		transfer = c.transferTime(q, jobs, inv, fn)
	}
	exec := c.cfg.Noise.Sample(fn.Exec(cfg), c.noiseSrc)

	// Dispatch-time fault decision. The draw is skipped entirely on the
	// zero-fault path (c.faults nil), so it consumes no randomness there.
	kind := failNone
	var abortAfter time.Duration
	if c.faults != nil {
		fd := c.faults.DrawTask(!warm)
		if fd.Straggle {
			exec = time.Duration(float64(exec) * c.faults.Spec().StragglerFactor)
		}
		switch {
		case fd.ColdFail:
			kind, abortAfter = failCold, coldPenalty
		case fd.Fail:
			kind, abortAfter = failTransient, coldPenalty+transfer+time.Duration(fd.FailFrac*float64(exec))
		case fd.Straggle:
			// Timeout-based straggler re-dispatch: expected time uses the
			// noise-free profile, so the threshold is a fixed multiple no
			// ordinary task (noise is truncated at ±3σ) can exceed.
			timeout := time.Duration(c.cfg.StragglerTimeout * float64(coldPenalty+transfer+fn.Exec(cfg)))
			if coldPenalty+transfer+exec > timeout {
				kind, abortAfter = failStraggler, timeout
			}
		}
	}
	held := coldPenalty + transfer + exec

	c.collector.RecordDispatch(forced)
	c.running++
	c.observeForPrewarm(q, inv, fn)
	c.prewarmSuccessors(q, inv)
	c.planners[q.ID].ObserveDispatch(now)
	c.ensureWarmPool(q.FnID)

	if c.faults == nil {
		if c.clu.Fabric != nil && transfer > 0 {
			// With the data-movement model on, the handoff occupies the
			// event heap as its own transfer event; execution is scheduled
			// when the data has arrived. The completion time is exactly
			// overhead+held either way. (Under fault injection below, the
			// transfer stays folded into the single flight event so crash
			// aborts keep their one cancellation point.)
			c.engine.Transfer(overhead+coldPenalty+transfer, func() {
				c.engine.After(exec, func() {
					c.planners[q.ID].ObserveDuration(held)
					c.chargeTask(jobs, res, held)
					c.complete(q, jobs, cfg, inv, warm)
				})
			})
			return
		}
		// Historical fast path: no flight tracking, no fault branches.
		c.engine.After(overhead+held, func() {
			c.planners[q.ID].ObserveDuration(held)
			c.chargeTask(jobs, res, held)
			c.complete(q, jobs, cfg, inv, warm)
		})
		return
	}
	f := c.newFlight(q, jobs, res, inv.ID, warm, now)
	if kind == failNone {
		c.engine.After(overhead+held, func() {
			if f.aborted {
				c.freeFlight(f) // a crash already handled this task
				return
			}
			c.unlinkFlight(f)
			c.planners[q.ID].ObserveDuration(held)
			c.chargeTask(f.jobs, f.res, held)
			jobs := f.jobs
			f.jobs = nil
			c.freeFlight(f)
			c.complete(q, jobs, cfg, inv, warm)
		})
		return
	}
	c.engine.After(overhead+abortAfter, func() {
		if f.aborted {
			c.freeFlight(f)
			return
		}
		c.unlinkFlight(f)
		c.failTask(f, kind, abortAfter)
		c.freeFlight(f)
	})
}

// transferTime returns the input-transfer latency of a task: the worst
// predecessor-to-invoker hop among its jobs (§3.4's data-locality model).
func (c *Controller) transferTime(q *queue.AFW, jobs []*queue.Job, inv *cluster.Invoker, fn *profile.Function) time.Duration {
	preds := q.App.Stage(q.Stage).Preds
	if len(preds) == 0 {
		return 0
	}
	var worst time.Duration
	for _, j := range jobs {
		for _, p := range preds {
			src := j.Instance.StageInvoker(p)
			t := c.cfg.Cluster.TransferTime(fn.InputMB, src == inv.ID)
			if t > worst {
				worst = t
			}
		}
	}
	return worst
}

// modelTransfer charges a task's input collection against the data-movement
// fabric: one hop per (job, predecessor edge), each moving the producer's
// profiled output payload from the invoker that ran it. Hops fetch in
// parallel, so the task waits for its slowest hop; every hop still occupies
// its links for its own duration, which is what makes concurrent transfers
// contend. Only called when the fabric is enabled (Cluster.Fabric non-nil).
func (c *Controller) modelTransfer(q *queue.AFW, jobs []*queue.Job, inv *cluster.Invoker, now time.Duration) time.Duration {
	preds := q.App.Stage(q.Stage).Preds
	if len(preds) == 0 {
		return 0
	}
	fab := c.clu.Fabric
	var worst time.Duration
	hops, cross := 0, 0
	var crossMB float64
	for _, j := range jobs {
		for _, p := range preds {
			src := j.Instance.StageInvoker(p)
			out := c.fnProfiles[c.queues.Get(q.AppIndex, p).FnID].OutputMB
			d := fab.Start(out, src, inv.ID, now)
			if d > worst {
				worst = d
			}
			hops++
			if src != inv.ID {
				cross++
				crossMB += out
			}
		}
	}
	c.collector.RecordTransfer(hops, cross, crossMB, worst)
	return worst
}

// complete finishes a task: releases resources, returns the container to
// the warm pool, advances each job's workflow instance, and enqueues
// successor jobs.
func (c *Controller) complete(q *queue.AFW, jobs []*queue.Job, cfg profile.Config, inv *cluster.Invoker, warm bool) {
	now := c.engine.Now()
	inv.Release(cfg.Resources(), now)
	inv.FinishTask(q.FnID, now)
	c.running--
	c.stateVersion++

	for _, j := range jobs {
		inst := j.Instance
		ready := inst.CompleteStage(j.Stage, inv.ID, now)
		if inst.Failed {
			// The workflow was abandoned (a sibling job exhausted its
			// retry budget) while this task ran: record the stage but
			// never feed its successors. The instance itself is never
			// recycled — RecordFailedInstance already took its snapshot
			// and other pending jobs may still point at it.
			c.putJob(j)
			continue
		}
		for _, next := range ready {
			nj := c.getJob()
			nj.Instance = inst
			nj.Stage = next
			nj.EnqueuedAt = now
			c.queues.Get(inst.AppIndex, next).Push(nj)
		}
		if inst.Done {
			c.collector.RecordInstance(inst)
			// Every stage has completed, so no job anywhere references the
			// instance: recycle it for a future arrival.
			c.instDone++
			c.instPool = append(c.instPool, inst)
		}
		c.putJob(j)
	}
	c.putJobBuf(jobs)
	c.requestPass()
}

// seedWarmPools prepares the warm-container pools before the trace starts:
// one container per application stage on the app's home invoker (the
// functions have run before; OpenWhisk keeps containers alive 10 minutes),
// plus — unless DisablePreload — enough containers per function to serve
// the trace's known arrival rates (Little's law over a nominal mid-size
// task), spread across invokers. This starts the platform in steady state
// so the evaluation measures scheduling quality rather than a one-off
// cold-start ramp; every scheduler shares the same seeding.
func (c *Controller) seedWarmPools() {
	if c.cfg.DisablePrewarm {
		return
	}
	for ai, app := range c.cfg.Apps {
		entry := c.queues.Get(ai, app.Entry())
		home := c.clu.HomeInvoker(sched.QueueKey(entry))
		for st := 0; st < app.Len(); st++ {
			home.AddWarm(c.queues.Get(ai, st).FnID, 0)
		}
	}
	if c.cfg.DisablePreload {
		return
	}
	// Expected span and per-app counts come from the source: exact for
	// traces (byte-identical pools), analytic expectations for streaming
	// generators.
	dur := c.expectSpan
	if dur <= 0 {
		return
	}
	appJobs := c.expectPerApp
	// Nominal steady-state task shape used only for pool sizing. Batch 2
	// reflects the short queues of an uncongested platform; heavier loads
	// transition into a batched equilibrium (longer queues, larger
	// batches, fewer containers) during the measurement warm-up window.
	nominal := profile.Config{Batch: 2, CPU: 4, GPU: 2}
	needPerFn := make([]float64, c.clu.NumFns())
	for _, q := range c.queues.Queues {
		if q.AppIndex >= len(appJobs) {
			continue // the source never addresses this app
		}
		rate := appJobs[q.AppIndex] / dur.Seconds()
		if rate <= 0 {
			continue
		}
		est := c.env.Oracle.Estimate(q.Function, nominal)
		taskRate := rate / float64(nominal.Batch)
		needPerFn[q.FnID] += taskRate * est.Time.Seconds() * 1.5
	}
	next := 0
	for _, name := range c.cfg.Registry.Names() {
		fn := c.clu.Intern(name) // already interned at construction
		need := int(needPerFn[fn]) + 1
		if needPerFn[fn] == 0 {
			continue
		}
		for i := 0; i < need; i++ {
			c.clu.Invokers[next%len(c.clu.Invokers)].AddWarm(fn, 0)
			next++
		}
	}
}

// prewarmSuccessors warms the functions of a dispatched stage's successor
// stages on the same invoker when no container exists there yet — the §4
// proxy's "predict subsequent invocations": a stage-s task implies stage
// s+1 invocations shortly after.
func (c *Controller) prewarmSuccessors(q *queue.AFW, inv *cluster.Invoker) {
	if c.cfg.DisablePrewarm {
		return
	}
	now := c.engine.Now()
	for _, succ := range q.App.Stage(q.Stage).Succs {
		fn := c.queues.Get(q.AppIndex, succ).FnID
		if inv.HasContainer(fn, now) || inv.Warming(fn) {
			continue
		}
		cold := c.fnProfiles[fn].ColdStart
		invID := inv.ID
		ep := inv.Epoch()
		inv.BeginWarming(fn)
		c.engine.After(cold, func() {
			target := c.clu.Invokers[invID]
			if target.Epoch() != ep {
				return // crashed meanwhile: the pre-warm died with the node
			}
			target.FinishWarming(fn, c.engine.Now())
			c.stateVersion++
			c.requestPass()
		})
	}
}

// ensureWarmPool sizes the function's cluster-wide container pool to its
// observed demand (Little's law over the task stream, §4's pre-warming
// proxy) and starts background warm-ups to cover any deficit, spreading
// them over the invokers with the most free resources.
func (c *Controller) ensureWarmPool(fn cluster.FnID) {
	if c.cfg.DisablePrewarm {
		return
	}
	need := 0
	for _, qid := range c.fnQueues[fn] {
		need += c.planners[qid].Need()
	}
	if need == 0 {
		return
	}
	now := c.engine.Now()
	existing := c.clu.ContainersFor(fn, now)
	deficit := need - existing
	if deficit <= 0 {
		return
	}
	if deficit > len(c.clu.Invokers) {
		deficit = len(c.clu.Invokers)
	}
	cold := c.fnProfiles[fn].ColdStart
	for i := 0; i < deficit; i++ {
		inv := c.pickWarmTarget(fn)
		if inv == nil {
			return
		}
		invID := inv.ID
		ep := inv.Epoch()
		inv.BeginWarming(fn)
		c.engine.After(cold, func() {
			target := c.clu.Invokers[invID]
			if target.Epoch() != ep {
				return // crashed meanwhile: the warm-up died with the node
			}
			target.FinishWarming(fn, c.engine.Now())
			c.stateVersion++
			c.requestPass()
		})
	}
}

// pickWarmTarget chooses the invoker for a background warm-up: the one with
// the most free GPU among those not already warming fn.
func (c *Controller) pickWarmTarget(fn cluster.FnID) *cluster.Invoker {
	return c.clu.MostFreeNotWarming(fn)
}

// observeForPrewarm feeds the queue's EWMA predictor and, when the next
// invocation is predictable far enough ahead, schedules a container warm-up
// on the invoker the function just used (§4's pre-warming proxy).
func (c *Controller) observeForPrewarm(q *queue.AFW, inv *cluster.Invoker, fn *profile.Function) {
	now := c.engine.Now()
	p := c.predictors[q.ID]
	p.Observe(now)
	c.lastInvoker[q.ID] = inv.ID
	if c.cfg.DisablePrewarm {
		return
	}
	next, ok := p.PredictNext()
	if !ok || p.Interval() > c.cfg.Cluster.KeepAlive {
		return
	}
	startAt := next - fn.ColdStart
	if startAt <= now {
		return // too late to warm ahead of the predicted call
	}
	invID := inv.ID
	ep := inv.Epoch()
	c.engine.At(startAt, func() {
		target := c.clu.Invokers[invID]
		if target.Epoch() != ep {
			return // crashed since the prediction was made
		}
		// Skip if a warm container already awaits the predicted call.
		if target.HasIdleWarm(q.FnID, c.engine.Now()) {
			return
		}
		c.engine.After(fn.ColdStart, func() {
			target := c.clu.Invokers[invID]
			if target.Epoch() != ep {
				return // crashed mid-warm-up
			}
			target.AddWarm(q.FnID, c.engine.Now())
			c.stateVersion++
			c.requestPass()
		})
	})
}
