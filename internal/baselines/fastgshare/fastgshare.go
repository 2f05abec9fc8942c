// Package fastgshare re-implements the FaST-GShare baseline as the paper's
// comparison frames it (§4.2): enumeration-based configuration selection
// driven by a GPU-efficiency throughput metric (throughput per vGPU share,
// the FaST-Manager's spatio-temporal multiplexing objective), the same
// mean-service-time SLO distribution as INFless, and GPU-fragmentation-
// minimizing node selection with no data-locality preference.
package fastgshare

import (
	"sort"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// Scheduler is the FaST-GShare baseline: the shared ranking Plan (see
// baselines.Ranker) under FaST-GShare's GPU-multiplexing ordering, plus
// fragmentation-minimizing placement.
type Scheduler struct{ baselines.Ranker }

// New returns a FaST-GShare scheduler.
func New() *Scheduler {
	return &Scheduler{baselines.NewRanker("FaST-GShare", fastGShareOrder)}
}

// fastGShareOrder ranks the stage's deadline-feasible configurations
// smallest GPU (then CPU) share first, running as close to the deadline as
// possible — producing the close-to-deadline latencies §5.1 reports
// ("FaST-GShare always yields the largest latency").
func fastGShareOrder(env *sched.Env, feasible []profile.Estimate) {
	sort.SliceStable(feasible, func(i, j int) bool {
		return fastGShareBetter(feasible[i], feasible[j])
	})
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
