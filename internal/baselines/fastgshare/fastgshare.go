// Package fastgshare re-implements the FaST-GShare baseline as the paper's
// comparison frames it (§4.2): enumeration-based configuration selection
// driven by a GPU-efficiency throughput metric (throughput per vGPU share,
// the FaST-Manager's spatio-temporal multiplexing objective), the same
// mean-service-time SLO distribution as INFless, and GPU-fragmentation-
// minimizing node selection with no data-locality preference.
package fastgshare

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

// Scheduler is the FaST-GShare baseline. The embedded MemoHost carries
// the shared baseline plan-memo layer (see package baselines and the
// INFless twin) — the ranking is a pure function of which batch options
// fit, so memoization changes no candidate, only skips the per-Plan
// enumeration and sort.
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

// New returns a FaST-GShare scheduler.
func New() *Scheduler {
	return &Scheduler{
		MemoHost:      baselines.NewMemoHost(),
		MaxCandidates: 5,
		splits:        make(map[int][]time.Duration),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "FaST-GShare" }

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
// stage deadline, pick the smallest GPU (then CPU) share, running as close
// to the deadline as possible — producing the close-to-deadline latencies
// §5.1 reports ("FaST-GShare always yields the largest latency").
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
		return fastGShareBetter(feasible[i], feasible[j])
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

// fastGShareBetter orders configurations by FaST-GShare's GPU-multiplexing
// objective: squeeze the GPU share first (fewest vGPUs), then the vCPUs,
// then run as slowly as the stage deadline allows — the smallest
// spatio-temporal GPU slice that still fits the budget. This is what makes
// FaST-GShare cheap but "always yield the largest latency" (§5.1). The
// final ConfigLess tie-break makes the order total over estimate content
// (the memoized-reuse contract, see package baselines).
func fastGShareBetter(a, b profile.Estimate) bool {
	if a.Config.GPU != b.Config.GPU {
		return a.Config.GPU < b.Config.GPU
	}
	if a.Config.CPU != b.Config.CPU {
		return a.Config.CPU < b.Config.CPU
	}
	if a.Time != b.Time {
		return a.Time > b.Time
	}
	if a.JobCost != b.JobCost {
		return a.JobCost < b.JobCost
	}
	return baselines.ConfigLess(a.Config, b.Config)
}

// Place implements sched.Scheduler with GPU-fragmentation-minimizing
// best-fit (§4.2).
func (s *Scheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	return sched.FragmentationPlace(env, cfg)
}

// MinConfig implements sched.Scheduler.
func (s *Scheduler) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return sched.DefaultMinConfig()
}
