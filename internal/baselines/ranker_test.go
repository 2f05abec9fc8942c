package baselines_test

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

// TestRankerChargesRankingUnderMeasuredOverhead: a cold Plan reads the
// stopwatch after the ordering and the memo store, so under measured
// overhead the ranking itself is charged. A sleeping hook gives a
// deterministic lower bound.
func TestRankerChargesRankingUnderMeasuredOverhead(t *testing.T) {
	const nap = 2 * time.Millisecond
	e, qs := env(t, workflow.Moderate)
	e.Overhead = sched.OverheadMeasured
	ordered := false
	r := baselines.NewRanker("sleepy", func(env *sched.Env, feasible []profile.Estimate) {
		ordered = true
		time.Sleep(nap)
	})
	q := qs.Get(0, 0)
	fill(q, e.Apps[0], 0, 4, e.SLOs[0])
	plan := r.Plan(e, q, 0)
	if !ordered || plan.Empty() {
		t.Fatalf("cold plan skipped the ordering (ordered=%v, %d candidates)", ordered, len(plan.Candidates))
	}
	if plan.Overhead < nap {
		t.Errorf("cold plan charged %v, want at least the %v ordering", plan.Overhead, nap)
	}
}
