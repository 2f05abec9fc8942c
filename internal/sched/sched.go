// Package sched defines the interface between the emulated Controller and
// the scheduling algorithms (ESG and the four baselines), plus the helpers
// they share: the platform view (Env), candidate plans, placement policies,
// and the mean-service-time SLO split used by INFless and FaST-GShare.
package sched

import (
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/workflow"
)

// OverheadMode controls how scheduling overhead is charged on the simulated
// clock.
type OverheadMode int

const (
	// OverheadNone charges nothing (deterministic tests).
	OverheadNone OverheadMode = iota
	// OverheadMeasured charges the measured wall-clock time of the search,
	// as the paper does (§5.3).
	OverheadMeasured
	// OverheadFixed charges Env.FixedOverhead per plan.
	OverheadFixed
)

// Env is the read-only platform view handed to schedulers.
type Env struct {
	Registry *profile.Registry
	Oracle   *profile.Oracle
	Cluster  *cluster.Cluster
	Apps     []*workflow.App
	// SLOs holds the end-to-end latency objective per application, indexed
	// like Apps.
	SLOs  []time.Duration
	Noise profile.Noise

	Overhead      OverheadMode
	FixedOverhead time.Duration
}

// StageTable returns the profile table of a stage's function.
func (e *Env) StageTable(appIndex, stage int) *profile.FunctionTable {
	return e.Oracle.MustTable(e.Apps[appIndex].Stage(stage).Function)
}

// HopTransfer returns the optimistic (local) inter-stage transfer latency
// the search algorithms fold into path-time estimates; ESG_Dispatch's
// locality policy makes local the common case.
func (e *Env) HopTransfer() time.Duration { return e.Cluster.Cfg.LocalTransfer }

// GroupHop returns the expected per-edge transfer time a plan search
// should fold into path estimates for the given group sequence of an
// application's stages. With the data-movement topology disabled it is
// exactly HopTransfer. With it enabled, each edge still assumes the
// optimistic data-local placement (the locality policy makes local the
// common case) but pays the producer's output payload over the consumer's
// PCIe link, averaged over the sequence's edges so the search's uniform
// per-hop constant reflects the group it prices.
//
// GroupHop deliberately reads only static configuration (topology
// bandwidths, profiled output sizes) — never live fleet or fabric state —
// so Plan stays a deterministic function of queue coordinates and remains
// safe for concurrent planning and plan caching (the hop value is part of
// the cache key).
func (e *Env) GroupHop(appIndex int, stages []int) time.Duration {
	base := e.HopTransfer()
	t := e.Cluster.Cfg.Topology
	if !t.Enabled() || t.PCIeMBps <= 0 || len(stages) < 2 {
		return base
	}
	app := e.Apps[appIndex]
	var total float64
	for _, s := range stages[:len(stages)-1] {
		total += app.StageOutputMB(s, e.Registry)
	}
	mean := total / float64(len(stages)-1)
	if mean <= 0 {
		return base
	}
	return base + time.Duration(mean/t.PCIeMBps*float64(time.Second))
}

// Plan is a scheduler's proposal for the head of one AFW queue: a ranked
// list of candidate configurations (ESG's "configuration priority queue",
// §3.1). The dispatcher tries candidates in order until one fits on an
// invoker.
type Plan struct {
	// Candidates is read-only for every caller: a scheduler may hand out
	// a list it shares with later plans (baselines.Memo's memoized
	// rankings, baselines.Ladder's pre-planned rungs, the list ESG's plan
	// cache stores with each search).
	Candidates []profile.Config
	// ConfigMiss marks a pre-planned configuration whose batch size
	// exceeded the queue length at schedule time (Table 4); the candidate
	// list already holds the clamped fallback. It is counted at dispatch:
	// only a plan that dispatches a task records its miss.
	ConfigMiss bool
	// PrePlanned marks plans taken from a schedule fixed earlier (Orion at
	// workflow start, Aquatope offline); only these count in the Table 4
	// miss-rate denominator, once per task they dispatch.
	PrePlanned bool
	// Overhead is the scheduling latency to charge on the simulated clock.
	Overhead time.Duration
}

// Empty reports whether the plan offers no candidates.
func (p Plan) Empty() bool { return len(p.Candidates) == 0 }

// Scheduler is one scheduling algorithm under evaluation.
type Scheduler interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Plan proposes ranked candidate configurations for the jobs at the
	// head of q at time now. Candidates' batch sizes must not exceed
	// q.Len().
	Plan(env *Env, q *queue.AFW, now time.Duration) Plan
	// Place selects an invoker able to host cfg for the given task, or nil
	// if none currently fits. It must not mutate cluster state.
	Place(env *Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker
	// MinConfig returns the smallest admissible configuration for the
	// queue's function — the forced fallback when a queue has sat on the
	// recheck list too long (§3.1).
	MinConfig(env *Env, q *queue.AFW) profile.Config
}

// DefaultMinConfig is the minimum configuration shared by schedulers
// without extra admissibility constraints.
func DefaultMinConfig() profile.Config { return profile.MinConfig }

// ConcurrentPlanner is an inert marker.
//
// Deprecated: no scheduler implements it and the controller does not read
// it; each cell plans on one goroutine. It is kept only because
// bench/cmd/esgperf names it.
type ConcurrentPlanner interface {
	ConcurrentPlanOK()
}

// PlanCacheStats are the counters of a scheduler's memoized plan search,
// the one counter type shared by ESG's plan cache, the baselines' plan
// memo and the run metrics. A lookup resolves as exactly one of Hits (an
// entry stored for this very key or target), IntervalHits (an entry
// searched at another target answered through its feasibility interval)
// or Misses (a cold search from scratch). Evictions counts entries
// dropped by the cache's capacity bound. Memo layers without feasibility
// intervals — the baselines' plan memo — report only Hits and Misses.
type PlanCacheStats struct {
	Hits         uint64
	IntervalHits uint64
	Misses       uint64
	Evictions    uint64
}

// Lookups returns the total number of memoized searches observed.
func (s PlanCacheStats) Lookups() uint64 {
	return s.Hits + s.IntervalHits + s.Misses
}

// PlanCaching is implemented by schedulers whose configuration search is
// memoized (ESG's plan cache, the always-on baseline plan memo of INFless
// and FaST-GShare). The Controller enables an optional cache when its
// Config asks for one and reports the counters with the run's metrics.
type PlanCaching interface {
	// EnablePlanCache attaches a memoized search layer. capacity bounds
	// the number of cached plans; granularity is the target-latency
	// bucket width. Non-positive values select the implementation's
	// defaults. Schedulers whose memo is structural and always on
	// (bounded key space, nothing to size) treat this as a no-op.
	EnablePlanCache(capacity int, granularity time.Duration)
	// PlanCacheStats returns the cache counters (zero without a cache).
	PlanCacheStats() PlanCacheStats
}

// TrainingMemoStats are the aggregate counters of a shared offline-
// training memo (Aquatope's BO training cache): misses count distinct
// training keys computed, hits the lookups they saved. Only the aggregate
// is surfaced — which run records a shared key's miss is execution-order-
// dependent under a parallel runner, so per-run counters would break the
// parallel==sequential byte-identity of exported results.
type TrainingMemoStats struct {
	Hits   uint64
	Misses uint64
}

// MeanServiceSplit distributes an end-to-end SLO over an app's stages
// proportionally to the stages' average (minimum-configuration) service
// times — the GrandSLAm-style distribution the paper applies to INFless and
// FaST-GShare (§4.2), which ignores inter-function relations.
func MeanServiceSplit(app *workflow.App, reg *profile.Registry, slo time.Duration) []time.Duration {
	n := app.Len()
	out := make([]time.Duration, n)
	var total float64
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		fn := reg.MustLookup(app.Stage(i).Function)
		times[i] = float64(fn.Exec(profile.MinConfig))
		total += times[i]
	}
	if total <= 0 {
		return out
	}
	for i := 0; i < n; i++ {
		out[i] = time.Duration(float64(slo) * times[i] / total)
	}
	return out
}

// Stopwatch measures scheduling overhead according to the environment's
// overhead mode. Use: defer sw.Stop(&plan) pattern or explicit Elapsed.
type Stopwatch struct {
	mode  OverheadMode
	fixed time.Duration
	start time.Time
}

// StartStopwatch begins an overhead measurement for env.
func StartStopwatch(env *Env) Stopwatch {
	sw := Stopwatch{mode: env.Overhead, fixed: env.FixedOverhead}
	if sw.mode == OverheadMeasured {
		sw.start = time.Now()
	}
	return sw
}

// Elapsed returns the overhead to charge.
func (sw Stopwatch) Elapsed() time.Duration {
	switch sw.mode {
	case OverheadMeasured:
		return time.Since(sw.start)
	case OverheadFixed:
		return sw.fixed
	default:
		return 0
	}
}
