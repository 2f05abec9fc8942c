// Package infless re-implements the INFless scheduling algorithm as the
// paper's comparison extends it (§4.2): per-function configuration
// enumeration with no inter-function awareness, an end-to-end SLO
// distributed over stages by mean service time (the GrandSLAm method), a
// resource-efficiency metric that maximizes throughput under the stage
// deadline, and fragmentation-minimizing worker selection.
package infless

import (
	"sort"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
)

// Scheduler is the INFless baseline: the shared ranking Plan (see
// baselines.Ranker) under INFless's resource-efficiency ordering, plus
// fragmentation-minimizing placement.
type Scheduler struct{ baselines.Ranker }

// New returns an INFless scheduler.
func New() *Scheduler {
	return &Scheduler{baselines.NewRanker("INFless", inflessOrder)}
}

// inflessOrder ranks the stage's deadline-feasible configurations by
// throughput (jobs per second) — INFless's drive to maximize system
// throughput, which over-allocates GPU resources exactly as §5.1 observes.
func inflessOrder(env *sched.Env, feasible []profile.Estimate) {
	nodeCap := units.Resources{CPU: env.Cluster.Cfg.NodeCPU, GPU: env.Cluster.Cfg.NodeGPU}
	var bestEff float64
	for _, e := range feasible {
		if eff := nodeEfficiency(e, nodeCap); eff > bestEff {
			bestEff = eff
		}
	}
	tier := bestEff * tierWindow
	sort.SliceStable(feasible, func(i, j int) bool {
		return inflessBetter(feasible[i], feasible[j], nodeCap, tier)
	})
}

// tierWindow admits configurations whose node efficiency is within this
// factor of the best one into the top tier; INFless then spends the slack
// on speed and generous allocation.
const tierWindow = 0.5

// inflessBetter orders configurations by INFless's resource-efficiency
// policy: first by efficiency tier — throughput per consumed node share
// (the fraction of an invoker the task's dominant resource occupies),
// maximizing system throughput while reducing fragmentation (§4.2) — and
// within the top tier by speed and then by generous allocation
// ("preferring to utilize all remaining resources in one invoker", §5.1).
// The speed/allocation preference inside the tier is what drives INFless's
// low latencies and highest resource costs. The final ConfigLess tie-break
// makes the order total over estimate content (the memoized-reuse
// contract, see package baselines).
func inflessBetter(a, b profile.Estimate, nodeCap units.Resources, tier float64) bool {
	ea, eb := nodeEfficiency(a, nodeCap), nodeEfficiency(b, nodeCap)
	ia, ib := ea >= tier, eb >= tier
	if ia != ib {
		return ia
	}
	if !ia {
		if ea != eb {
			return ea > eb
		}
		// Equal-efficiency pairs below the tier: order by the same
		// (time, job cost, config) content the latency-ascending input
		// is sorted by, so the total order keeps the stable result.
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.JobCost != b.JobCost {
			return a.JobCost < b.JobCost
		}
		return baselines.ConfigLess(a.Config, b.Config)
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	ga, gb := cappedGPU(a), cappedGPU(b)
	if ga != gb {
		return ga > gb
	}
	if a.Config.CPU != b.Config.CPU {
		return a.Config.CPU > b.Config.CPU
	}
	if a.JobCost != b.JobCost {
		return a.JobCost < b.JobCost
	}
	return baselines.ConfigLess(a.Config, b.Config)
}

// nodeEfficiency is jobs per second per consumed node fraction.
func nodeEfficiency(e profile.Estimate, nodeCap units.Resources) float64 {
	if e.Time <= 0 {
		return 0
	}
	cpuFrac := float64(e.Config.CPU) / float64(nodeCap.CPU)
	gpuFrac := float64(e.Config.GPU) / float64(nodeCap.GPU)
	frac := cpuFrac
	if gpuFrac > frac {
		frac = gpuFrac
	}
	if frac <= 0 {
		return 0
	}
	return float64(e.Config.Batch) / e.Time.Seconds() / frac
}

// cappedGPU bounds the generosity tie-break at twice the batch's
// data-parallel width (instances beyond that are pure idle).
func cappedGPU(e profile.Estimate) int {
	g := int(e.Config.GPU)
	if lim := 2 * e.Config.Batch; g > lim {
		return lim
	}
	return g
}

// Place implements sched.Scheduler with the fragmentation-minimizing
// best-fit policy (§4.2: INFless does not follow data locality).
func (s *Scheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	return sched.FragmentationPlace(env, cfg)
}
