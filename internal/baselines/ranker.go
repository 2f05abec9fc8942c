package baselines

import (
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// maxCandidates bounds a ranked plan's fallback list.
const maxCandidates = 5

// Ranker is the Plan step of the ranking baselines (INFless, FaST-GShare,
// HAS-GPU), which the paper's comparison extends with GrandSLAm's
// mean-service SLO split (§4.2): keep the stage's configurations that meet
// the split's static stage deadline, order them by the scheduler's policy
// and offer the top five, or the single fastest configuration when none
// meets the deadline. The schedulers differ only in the ordering, so each
// embeds a Ranker and adds its Place.
//
// The ranking depends on the queue only through which batch options fit,
// so every queue length in a quantized bucket reproduces the identical
// list: the memo (see the package comment) answers repeats, and only a
// miss computes the split and sorts.
type Ranker struct {
	name string
	// order sorts the deadline-feasible estimates in place, best first.
	// It receives a copy, never the function table's own slice, and must
	// be a total order over estimate content (the memoized-reuse
	// contract).
	order func(env *sched.Env, feasible []profile.Estimate)
	memo  *Memo
}

// NewRanker returns a ranker reporting name that orders candidates with
// order, around a fresh, enabled memo.
func NewRanker(name string, order func(env *sched.Env, feasible []profile.Estimate)) Ranker {
	return Ranker{name: name, order: order, memo: NewMemo()}
}

// Name implements sched.Scheduler.
func (r *Ranker) Name() string { return r.name }

// Plan implements sched.Scheduler. The stopwatch is read last, so a cold
// ranking's measured overhead includes the sort.
func (r *Ranker) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	sw := sched.StartStopwatch(env)
	table := env.StageTable(q.AppIndex, q.Stage)
	key := Key{App: q.AppIndex, Stage: q.Stage, MaxBatch: table.QuantizeBatchBound(q.Len())}
	cands, ok := r.memo.Lookup(key)
	if !ok {
		budget := sched.MeanServiceSplit(env.Apps[q.AppIndex], env.Registry, env.SLOs[q.AppIndex])[q.Stage]
		ests := table.LatencyAscending(q.Len())
		n := 0 // latency-ascending: the feasible configurations are a prefix
		for n < len(ests) && ests[n].Time <= budget {
			n++
		}
		switch {
		case n > 0:
			feasible := append([]profile.Estimate(nil), ests[:n]...)
			r.order(env, feasible)
			cands = make([]profile.Config, min(n, maxCandidates))
			for i := range cands {
				cands[i] = feasible[i].Config
			}
		case len(ests) > 0:
			// No configuration meets the stage deadline: run the fastest.
			cands = []profile.Config{ests[0].Config}
		}
		cands = r.memo.Store(key, cands)
	}
	return sched.Plan{Candidates: cands, Overhead: sw.Elapsed()}
}

// MinConfig implements sched.Scheduler.
func (r *Ranker) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return sched.DefaultMinConfig()
}

// PlanMemo implements MemoUser.
func (r *Ranker) PlanMemo() *Memo { return r.memo }

// SetPlanMemo replaces the ranker's memo with a shared one. Rankings are
// pure functions of their key for a fixed profile registry and
// configuration space, so a grid of runs over one registry — the planet
// scenario's arrival shapes — can pay each cold ranking once and share the
// frozen result; runs over different registries or spaces must not share
// a memo.
func (r *Ranker) SetPlanMemo(m *Memo) { r.memo = m }

// EnablePlanCache implements sched.PlanCaching. The memo is structural and
// always on (its key space is bounded, see the package comment), so there
// is nothing to attach or size; the method exists so RunConfig.PlanCache
// treats every caching scheduler uniformly.
func (r *Ranker) EnablePlanCache(capacity int, granularity time.Duration) {}

// PlanCacheStats implements sched.PlanCaching: the memo's hit/cold
// counters, reported with the run's metrics.
func (r *Ranker) PlanCacheStats() sched.PlanCacheStats { return r.memo.Stats() }
