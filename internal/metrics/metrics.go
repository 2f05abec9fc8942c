// Package metrics collects and summarizes the quantities the paper's
// evaluation reports: SLO hit rates and resource costs (Figs. 6 and 8),
// per-application end-to-end latency series (Fig. 7), scheduling-overhead
// distributions (Fig. 10), pre-planned configuration miss rates (Table 4),
// and cold/warm start and utilization diagnostics.
package metrics

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/stats"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// InstanceRecord is the outcome of one finished workflow instance —
// completed, or abandoned under fault injection (Failed; Completed then
// holds the abandonment time and Hit is false).
type InstanceRecord struct {
	AppIndex  int
	Arrival   time.Duration
	Completed time.Duration
	Latency   time.Duration
	SLO       time.Duration
	Hit       bool
	Cost      units.Money
	Warmup    bool
	Failed    bool
}

// AppSummary aggregates one application's measured instances.
type AppSummary struct {
	Name      string
	Instances int
	Hits      int
	HitRate   float64
	Cost      units.Money
	// Latency statistics in milliseconds over measured instances.
	MeanLatencyMS float64
	P50MS         float64
	P95MS         float64
	P99MS         float64
	SLOMS         float64
	// Latencies holds measured end-to-end latencies in completion order
	// (Fig. 7's series).
	Latencies []time.Duration
}

// Result is the full outcome of one emulation run.
type Result struct {
	Scheduler string
	Workload  string
	SLOLevel  string

	// Records lists every completed instance in completion order
	// (including warm-up instances, which are flagged). It is nil under the
	// streaming sketch recorder; TotalRecords carries the count either way.
	Records []InstanceRecord
	PerApp  []AppSummary
	// TotalRecords counts every finished instance (warm-up and failed
	// included) — len(Records) under the exact recorder, a plain counter
	// under the streaming one.
	TotalRecords int
	// InstanceLivePeak is the run's high-water count of in-flight workflow
	// instances — the figure that bounds a streaming run's memory,
	// independent of the request count.
	InstanceLivePeak int

	// Aggregates over measured (non-warm-up) instances.
	Instances  int
	Hits       int
	HitRate    float64
	TotalCost  units.Money
	MeanCost   units.Money
	Unfinished int
	// Truncated reports that the run hit its drain deadline with work
	// left: its unfinished instances were cut off, not drained.
	Truncated bool

	// Scheduling diagnostics. Overheads is nil under the streaming sketch
	// recorder, which summarizes into OverheadSummary instead.
	Overheads       []time.Duration
	OverheadSummary *stats.Box
	Tasks           int
	ForcedMin       int
	PrePlannedPlans int
	ConfigMisses    int
	ColdStarts      int
	WarmStarts      int

	// Plan-cache counters (zero when the scheduler ran without a
	// memoized search layer). A lookup resolves as exactly one of hit,
	// interval hit, or miss (a cold search).
	PlanCacheHits          uint64
	PlanCacheIntervalHits  uint64
	PlanCacheMisses        uint64
	PlanCacheEvictions     uint64
	PlanCacheInvalidations uint64
	// PlanCacheResumes is always zero: the plan cache's resume tier was
	// removed, and the field stays only for code that still reads it.
	PlanCacheResumes uint64

	// Faults aggregates the run's fault-injection outcomes (all zero on a
	// fault-free run).
	Faults FaultStats

	// Xfer aggregates the data-movement model's outcomes (all zero when
	// the transfer topology is disabled).
	Xfer XferStats

	UtilCPU float64
	UtilGPU float64
	SimTime time.Duration
}

// FaultStats aggregates a run's fault-injection outcomes: what was
// injected (crashes, task/cold-start failures, stragglers) and what it
// cost (lost work, retries, dropped jobs, abandoned instances, downtime).
type FaultStats struct {
	// Crashes and Recoveries count invoker churn events; TasksLost is the
	// in-flight tasks aborted by crashes and WarmFlushed the idle
	// containers they destroyed.
	Crashes     int
	Recoveries  int
	TasksLost   int
	WarmFlushed int
	// TaskFailures, ColdStartFailures and StragglersKilled count aborted
	// tasks by cause (transient failure, failed cold start, straggler
	// timeout re-dispatch).
	TaskFailures      int
	ColdStartFailures int
	StragglersKilled  int
	// Retries counts jobs re-enqueued after a failure; DroppedJobs those
	// that exhausted the attempt budget; FailedInstances the measured
	// (non-warm-up) workflow instances abandoned as a result.
	Retries         int
	DroppedJobs     int
	FailedInstances int
	// LostWorkSeconds sums the task-time thrown away by aborted tasks;
	// DowntimeSeconds sums invoker downtime across recoveries.
	LostWorkSeconds float64
	DowntimeSeconds float64
}

// Any reports whether any fault was injected or suffered.
func (f FaultStats) Any() bool {
	return f != FaultStats{}
}

// XferStats aggregates a run's modeled data movement: how many inter-stage
// handoffs were charged on the event heap, how many (and how much) crossed
// servers, and the total simulated time tasks spent waiting on transfers.
type XferStats struct {
	// Hops counts modeled predecessor→invoker handoffs (one per job and
	// incoming edge of each dispatched task).
	Hops int
	// CrossServer counts the hops whose producer ran on a different
	// invoker than the consumer; CrossServerMB sums their payloads.
	CrossServer   int
	CrossServerMB float64
	// TransferSeconds sums the transfer time charged to dispatched tasks
	// (each task is charged its slowest hop — fetches run in parallel).
	TransferSeconds float64
}

// Any reports whether the data-movement model charged anything.
func (x XferStats) Any() bool {
	return x != XferStats{}
}

// LocalFraction returns the fraction of hops that stayed on the producer's
// invoker — the figure ESG_Dispatch's locality policy is judged on.
func (x XferStats) LocalFraction() float64 {
	if x.Hops == 0 {
		return 0
	}
	return float64(x.Hops-x.CrossServer) / float64(x.Hops)
}

// MeanRecoveryS returns the mean invoker downtime in seconds (the run's
// observed MTTR), or 0 without recoveries.
func (f FaultStats) MeanRecoveryS() float64 {
	if f.Recoveries == 0 {
		return 0
	}
	return f.DowntimeSeconds / float64(f.Recoveries)
}

// SLOAttainment returns the SLO hit rate over every measured instance
// including the failed ones — attainment under failure. Without failed
// instances it equals HitRate.
func (r *Result) SLOAttainment() float64 {
	total := r.Instances + r.Faults.FailedInstances
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// Goodput returns completed measured instances per simulated second —
// throughput net of failed and unfinished work.
func (r *Result) Goodput() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.Instances) / r.SimTime.Seconds()
}

// MissRate returns the pre-planned configuration miss rate (Table 4).
func (r *Result) MissRate() float64 {
	if r.PrePlannedPlans == 0 {
		return 0
	}
	return float64(r.ConfigMisses) / float64(r.PrePlannedPlans)
}

// OverheadBox summarizes the scheduling-overhead distribution in
// milliseconds (Fig. 10). Under the streaming recorder, which keeps no
// per-sample series, the summary comes from the overhead sketch.
func (r *Result) OverheadBox() stats.Box {
	if r.Overheads == nil && r.OverheadSummary != nil {
		return *r.OverheadSummary
	}
	return stats.BoxOf(stats.DurationsToMillis(r.Overheads))
}

// Summary renders a one-line result digest.
func (r *Result) Summary() string {
	s := fmt.Sprintf("%s/%s/%s: hit=%.1f%% cost=%s n=%d unfinished=%d cold=%d warm=%d",
		r.Scheduler, r.Workload, r.SLOLevel, 100*r.HitRate, r.TotalCost, r.Instances,
		r.Unfinished, r.ColdStarts, r.WarmStarts)
	// Only a cut-off run says so, keeping drained summaries byte-identical
	// to runs before the flag existed.
	if r.Truncated {
		s += " truncated"
	}
	saved := r.PlanCacheHits + r.PlanCacheIntervalHits
	if lookups := saved + r.PlanCacheMisses; lookups > 0 {
		s += fmt.Sprintf(" plancache=%d/%d (exact %d, interval %d, cold %d)",
			saved, lookups, r.PlanCacheHits, r.PlanCacheIntervalHits, r.PlanCacheMisses)
	}
	// The faults section only appears when something was injected or
	// suffered, so fault-free summaries are byte-identical to runs without
	// the injector.
	if f := r.Faults; f.Any() {
		s += fmt.Sprintf(" faults=[attain=%.1f%% crashes=%d lost=%d taskfail=%d coldfail=%d stragglers=%d retries=%d dropped=%d failed=%d lostwork=%.2fs mttr=%.2fs goodput=%.1f/s]",
			100*r.SLOAttainment(), f.Crashes, f.TasksLost, f.TaskFailures,
			f.ColdStartFailures, f.StragglersKilled, f.Retries, f.DroppedJobs,
			f.FailedInstances, f.LostWorkSeconds, f.MeanRecoveryS(), r.Goodput())
	}
	// Likewise the transfer section: only emitted when the data-movement
	// model charged something, so zero-transfer summaries stay
	// byte-identical to runs without the fabric.
	if x := r.Xfer; x.Any() {
		s += fmt.Sprintf(" xfer=[hops=%d local=%.1f%% crossMB=%.1f time=%.2fs]",
			x.Hops, 100*x.LocalFraction(), x.CrossServerMB, x.TransferSeconds)
	}
	return s
}

// Collector accumulates observations during a run. Per-sample storage is
// delegated to a LatencyRecorder — exact by default, streaming via
// SetRecorder(NewSketchRecorder()) for planet-scale runs.
type Collector struct {
	scheduler string
	workload  string
	sloLevel  string
	apps      []*workflow.App

	recorder LatencyRecorder

	tasks      int
	forcedMin  int
	prePlanned int
	misses     int

	cache  sched.PlanCacheStats
	faults FaultStats
	xfer   XferStats
}

// NewCollector starts collection for one run with the exact (stored-sample)
// recorder.
func NewCollector(scheduler, workload, sloLevel string, apps []*workflow.App) *Collector {
	return &Collector{scheduler: scheduler, workload: workload, sloLevel: sloLevel,
		apps: apps, recorder: NewExactRecorder()}
}

// SetRecorder swaps the latency-recording policy; call it before the run
// records anything.
func (c *Collector) SetRecorder(r LatencyRecorder) { c.recorder = r }

// RecordPlan notes one scheduler Plan call.
func (c *Collector) RecordPlan(overhead time.Duration, prePlanned, miss bool) {
	c.recorder.ObserveOverhead(overhead)
	if prePlanned {
		c.prePlanned++
		if miss {
			c.misses++
		}
	}
}

// RecordDispatch notes one dispatched task.
func (c *Collector) RecordDispatch(forced bool) {
	c.tasks++
	if forced {
		c.forcedMin++
	}
}

// RecordCacheStats notes the scheduler's plan-cache counters at the end of
// a run (see the PlanCache* fields of Result).
func (c *Collector) RecordCacheStats(pc sched.PlanCacheStats) {
	c.cache = pc
}

// RecordInstance notes one completed workflow instance.
func (c *Collector) RecordInstance(inst *queue.Instance) {
	c.recorder.ObserveInstance(InstanceRecord{
		AppIndex:  inst.AppIndex,
		Arrival:   inst.Arrival,
		Completed: inst.CompletedAt,
		Latency:   inst.Latency(),
		SLO:       inst.SLO,
		Hit:       inst.SLOHit(),
		Cost:      inst.Cost,
		Warmup:    inst.Warmup,
	})
}

// RecordFailedInstance notes a workflow instance abandoned under fault
// injection (its record carries the abandonment time and never hits).
func (c *Collector) RecordFailedInstance(inst *queue.Instance) {
	c.recorder.ObserveInstance(InstanceRecord{
		AppIndex:  inst.AppIndex,
		Arrival:   inst.Arrival,
		Completed: inst.FailedAt,
		Latency:   inst.FailedAt - inst.Arrival,
		SLO:       inst.SLO,
		Hit:       false,
		Cost:      inst.Cost,
		Warmup:    inst.Warmup,
		Failed:    true,
	})
}

// RecordCrash notes one invoker crash: the in-flight tasks it aborted and
// the idle warm containers it flushed.
func (c *Collector) RecordCrash(tasksLost, warmFlushed int) {
	c.faults.Crashes++
	c.faults.TasksLost += tasksLost
	c.faults.WarmFlushed += warmFlushed
}

// RecordRecovery notes one invoker recovery after the given downtime.
func (c *Collector) RecordRecovery(downtime time.Duration) {
	c.faults.Recoveries++
	c.faults.DowntimeSeconds += downtime.Seconds()
}

// RecordTaskFault notes one aborted task and the task-time it threw away.
// Exactly one of transientFail/coldFail/straggler classifies the cause
// (crash-aborted tasks are counted by RecordCrash instead and only add
// lost work here via lost > 0 with no cause set).
func (c *Collector) RecordTaskFault(transientFail, coldFail, straggler bool, lost time.Duration) {
	switch {
	case transientFail:
		c.faults.TaskFailures++
	case coldFail:
		c.faults.ColdStartFailures++
	case straggler:
		c.faults.StragglersKilled++
	}
	c.faults.LostWorkSeconds += lost.Seconds()
}

// RecordTransfer notes one dispatched task's modeled data movement: hops
// predecessor handoffs, of which cross crossed servers moving crossMB
// megabytes, charged as d of transfer time (the task's slowest hop).
func (c *Collector) RecordTransfer(hops, cross int, crossMB float64, d time.Duration) {
	c.xfer.Hops += hops
	c.xfer.CrossServer += cross
	c.xfer.CrossServerMB += crossMB
	c.xfer.TransferSeconds += d.Seconds()
}

// RecordRetries notes n jobs re-enqueued after a failed task.
func (c *Collector) RecordRetries(n int) { c.faults.Retries += n }

// RecordDroppedJob notes a job that exhausted its attempt budget.
func (c *Collector) RecordDroppedJob() { c.faults.DroppedJobs++ }

// Finalize assembles the Result. coldStarts/warmStarts/util/simTime come
// from the cluster and engine; unfinished counts instances never completed.
func (c *Collector) Finalize(coldStarts, warmStarts, unfinished int, utilCPU, utilGPU float64, simTime time.Duration) *Result {
	r := &Result{
		Scheduler:              c.scheduler,
		Workload:               c.workload,
		SLOLevel:               c.sloLevel,
		Tasks:                  c.tasks,
		ForcedMin:              c.forcedMin,
		PrePlannedPlans:        c.prePlanned,
		ConfigMisses:           c.misses,
		ColdStarts:             coldStarts,
		WarmStarts:             warmStarts,
		PlanCacheHits:          c.cache.Hits,
		PlanCacheIntervalHits:  c.cache.IntervalHits,
		PlanCacheMisses:        c.cache.Misses,
		PlanCacheEvictions:     c.cache.Evictions,
		PlanCacheInvalidations: c.cache.Invalidations,
		Faults:                 c.faults,
		Xfer:                   c.xfer,
		Unfinished:             unfinished,
		UtilCPU:                utilCPU,
		UtilGPU:                utilGPU,
		SimTime:                simTime,
	}
	c.recorder.finalizeInto(r, c.apps)
	return r
}
