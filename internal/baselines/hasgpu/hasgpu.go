// Package hasgpu implements a HAS-GPU-style hybrid auto-scaler: horizontal
// replica scaling combined with vertical sub-GPU quota resizing under
// per-application SLOs.
//
// The vertical half is the configuration choice: within the stage's
// mean-service SLO split (the Plan step baselines.Ranker shares with the
// INFless and FaST-GShare baselines), the plan ranks the deadline-feasible
// configurations cheapest-per-job first — resizing the sub-GPU quota (and
// vCPU share) to the smallest slice whose speed still holds the stage
// budget, preferring larger batches so one right-sized replica absorbs
// more backlog before a new one is spawned. The horizontal half is
// the platform's scaling loop itself: the controller dispatches one task
// per planned batch, so a queue longer than the chosen batch fans out into
// additional replicas, and placement routes onto already-warm replicas
// first (the warm-pool fast path) before packing a new replica best-fit
// onto the fleet index.
//
// Like its INFless/FaST-GShare siblings, the ranking is a pure function of
// which batch options fit, so the shared baseline plan memo applies
// unchanged.
package hasgpu

import (
	"sort"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// Scheduler is the HAS-GPU hybrid auto-scaling baseline: the shared
// ranking Plan (see baselines.Ranker) under the hybrid's cost ordering,
// plus warm-first placement.
type Scheduler struct{ baselines.Ranker }

// New returns a HAS-GPU scheduler.
func New() *Scheduler {
	return &Scheduler{baselines.NewRanker("HAS-GPU", hasGPUOrder)}
}

// hasGPUOrder ranks the stage's deadline-feasible configurations cheapest
// per-job quota first, consolidating backlog into the largest batch at
// that cost before letting the dispatcher scale out horizontally — the
// vertical half of the hybrid policy.
func hasGPUOrder(env *sched.Env, feasible []profile.Estimate) {
	sort.SliceStable(feasible, func(i, j int) bool {
		return hasGPUBetter(feasible[i], feasible[j])
	})
}

// hasGPUBetter orders configurations by the hybrid objective: cheapest
// per-job first (the SLO-aware cost-efficient quota), then the largest
// batch at that cost (consolidate before scaling out), then the finest
// sub-GPU quota, then the faster configuration. The final ConfigLess
// tie-break makes the order total over estimate content (the
// memoized-reuse contract, see package baselines).
func hasGPUBetter(a, b profile.Estimate) bool {
	if a.JobCost != b.JobCost {
		return a.JobCost < b.JobCost
	}
	if a.Config.Batch != b.Config.Batch {
		return a.Config.Batch > b.Config.Batch
	}
	if a.Config.GPU != b.Config.GPU {
		return a.Config.GPU < b.Config.GPU
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return baselines.ConfigLess(a.Config, b.Config)
}

// Place implements sched.Scheduler with the hybrid's horizontal routing:
// scale onto an invoker already holding an idle warm replica of the
// function (the warm-pool/fleet-index fast path — reusing a replica is the
// zero-cold-start scale-up), else pack a new replica best-fit.
func (s *Scheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	res := cfg.Resources()
	if inv := env.Cluster.FirstWarmFit(q.FnID, now, res); inv != nil {
		return inv
	}
	return env.Cluster.BestFit(res)
}
