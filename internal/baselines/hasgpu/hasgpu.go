// Package hasgpu implements a HAS-GPU-style hybrid auto-scaler: horizontal
// replica scaling combined with vertical sub-GPU quota resizing under
// per-application SLOs.
//
// The vertical half is the configuration choice: within the stage's
// mean-service SLO split (the same sched.SplitMemo-backed distribution the
// INFless and FaST-GShare baselines use), the plan ranks the deadline-
// feasible configurations cheapest-per-job first — resizing the sub-GPU
// quota (and vCPU share) to the smallest slice whose speed still holds the
// stage budget, preferring larger batches so one right-sized replica
// absorbs more backlog before a new one is spawned. The horizontal half is
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
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// Scheduler is the HAS-GPU hybrid auto-scaling baseline.
type Scheduler struct {
	baselines.MemoHost

	// MaxCandidates bounds the plan's fallback list (default 5).
	MaxCandidates int

	// Splits, when non-nil, shares SLO-split computation with other
	// scheduler instances of a run grid (see sched.SplitMemo). The
	// per-instance splits map still fronts it.
	Splits *sched.SplitMemo

	// splitMu guards the lazily filled splits memo; it and the shared plan
	// memo are the only mutable state Plan touches.
	splitMu sync.Mutex
	splits  map[int][]time.Duration
}

// New returns a HAS-GPU scheduler.
func New() *Scheduler {
	return &Scheduler{
		MemoHost:      baselines.NewMemoHost(),
		MaxCandidates: 5,
		splits:        make(map[int][]time.Duration),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "HAS-GPU" }

func (s *Scheduler) stageBudget(env *sched.Env, q *queue.AFW) time.Duration {
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	split, ok := s.splits[q.AppIndex]
	if !ok {
		if s.Splits != nil {
			split = s.Splits.Split(env.Apps[q.AppIndex], env.Registry, env.SLOs[q.AppIndex])
		} else {
			split = sched.MeanServiceSplit(env.Apps[q.AppIndex], env.Registry, env.SLOs[q.AppIndex])
		}
		s.splits[q.AppIndex] = split
	}
	return split[q.Stage]
}

// Plan implements sched.Scheduler: among configurations meeting the static
// stage deadline, pick the cheapest per-job quota, consolidating backlog
// into the largest batch at that cost before letting the dispatcher scale
// out horizontally — the vertical half of the hybrid policy.
func (s *Scheduler) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	sw := sched.StartStopwatch(env)
	table := env.StageTable(q.AppIndex, q.Stage)
	memo := s.PlanMemo()
	key := baselines.Key{App: q.AppIndex, Stage: q.Stage, MaxBatch: table.QuantizeBatchBound(q.Len())}
	if cands, ok := memo.Lookup(key); ok {
		return sched.Plan{Candidates: cands, Overhead: sw.Elapsed()}
	}
	budget := s.stageBudget(env, q)

	ests := table.LatencyAscending(q.Len())
	var feasible []profile.Estimate
	for _, e := range ests {
		if e.Time > budget {
			break
		}
		feasible = append(feasible, e)
	}

	plan := sched.Plan{Overhead: sw.Elapsed()}
	if len(feasible) == 0 {
		if len(ests) > 0 {
			plan.Candidates = []profile.Config{ests[0].Config}
		}
		plan.Candidates = memo.Store(key, plan.Candidates)
		return plan
	}
	sort.SliceStable(feasible, func(i, j int) bool {
		return hasGPUBetter(feasible[i], feasible[j])
	})
	max := s.MaxCandidates
	if max <= 0 {
		max = 5
	}
	for i := 0; i < len(feasible) && i < max; i++ {
		plan.Candidates = append(plan.Candidates, feasible[i].Config)
	}
	plan.Candidates = memo.Store(key, plan.Candidates)
	return plan
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

// MinConfig implements sched.Scheduler.
func (s *Scheduler) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return sched.DefaultMinConfig()
}
