// Package hasgpu_test pins the hybrid auto-scaler's characterization: the
// vertical half right-sizes the cheapest SLO-feasible quota (consolidating
// into the widest batch at that cost), and the horizontal half routes onto
// already-warm replicas before packing new ones.
package hasgpu_test

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/baselines/hasgpu"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func env(t *testing.T, level workflow.SLOLevel) (*sched.Env, *queue.Set) {
	t.Helper()
	reg := profile.Table3Registry()
	apps := workflow.EvaluationApps()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, level, reg)
	}
	e := &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
		Noise:    profile.DefaultNoise(),
	}
	qs := queue.NewSet(apps)
	qs.Bind(e.Cluster)
	return e, qs
}

func fill(e *sched.Env, q *queue.AFW, appIdx, n int) {
	for i := 0; i < n; i++ {
		inst := queue.NewInstance(i, appIdx, e.Apps[appIdx], 0, e.SLOs[appIdx])
		q.Push(&queue.Job{Instance: inst, Stage: q.Stage, EnqueuedAt: 0})
	}
}

func TestInterfaces(t *testing.T) {
	var _ sched.Scheduler = hasgpu.New()
	var _ sched.PlanCaching = hasgpu.New()
	var _ baselines.MemoUser = hasgpu.New()
	if got := hasgpu.New().Name(); got != "HAS-GPU" {
		t.Errorf("Name() = %q, want HAS-GPU", got)
	}
}

// TestPlanWithinBudgetAndCheapestFirst: every candidate holds the stage's
// mean-service split, and the head candidate is the cheapest per job of
// the feasible set — breaking cost ties toward the widest batch.
func TestPlanWithinBudgetAndCheapestFirst(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := hasgpu.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 8)

	budget := sched.MeanServiceSplit(e.Apps[0], e.Registry, e.SLOs[0])[0]
	plan := s.Plan(e, q, 0)
	if plan.Empty() {
		t.Fatal("no candidates")
	}
	table := e.StageTable(0, 0)
	byCfg := make(map[profile.Config]profile.Estimate)
	for _, est := range table.LatencyAscending(q.Len()) {
		byCfg[est.Config] = est
	}
	for _, cfg := range plan.Candidates {
		est, ok := byCfg[cfg]
		if !ok {
			t.Fatalf("candidate %v not in the profile table", cfg)
		}
		if est.Time > budget {
			t.Errorf("candidate %v runs %v, over the %v stage budget", cfg, est.Time, budget)
		}
	}
	head := byCfg[plan.Candidates[0]]
	for _, est := range table.LatencyAscending(q.Len()) {
		if est.Time > budget {
			break
		}
		if est.JobCost < head.JobCost {
			t.Fatalf("head %v (%v/job) is not the cheapest: %v costs %v/job",
				head.Config, head.JobCost, est.Config, est.JobCost)
		}
		if est.JobCost == head.JobCost && est.Config.Batch > head.Config.Batch {
			t.Fatalf("head %v ties %v on cost but has the narrower batch", head.Config, est.Config)
		}
	}
}

// TestPlanInfeasibleFallsBackToFastest: when no configuration meets the
// stage budget, the plan degrades to the single fastest configuration.
func TestPlanInfeasibleFallsBackToFastest(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	for i := range e.SLOs {
		e.SLOs[i] = time.Microsecond // nothing can hold this
	}
	s := hasgpu.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 4)

	plan := s.Plan(e, q, 0)
	if len(plan.Candidates) != 1 {
		t.Fatalf("infeasible plan has %d candidates, want 1", len(plan.Candidates))
	}
	if want := e.StageTable(0, 0).LatencyAscending(q.Len())[0].Config; plan.Candidates[0] != want {
		t.Errorf("fallback %v, want the fastest %v", plan.Candidates[0], want)
	}
}

// TestPlaceWarmFirst: an invoker holding an idle warm replica of the
// function wins over every cold invoker; without warm replicas the packed
// best-fit applies.
func TestPlaceWarmFirst(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := hasgpu.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 1)
	cfg := profile.Config{Batch: 1, CPU: 2, GPU: 1}

	cold := s.Place(e, q, q.Peek(1), cfg, 0)
	if cold == nil {
		t.Fatal("no cold placement on an idle fleet")
	}
	if want := e.Cluster.BestFit(cfg.Resources()); cold != want {
		t.Errorf("cold placement on %d, want best-fit %d", cold.ID, want.ID)
	}

	warm := e.Cluster.Invokers[11]
	warm.AddWarm(q.FnID, 0)
	if got := s.Place(e, q, q.Peek(1), cfg, 0); got != warm {
		t.Errorf("placement on %d, want the warm replica on %d", got.ID, warm.ID)
	}
}

// TestMemoSkipsReranking: the second Plan over the same coordinates is
// answered by the shared baseline memo with identical candidates.
func TestMemoSkipsReranking(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := hasgpu.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 4)

	first := s.Plan(e, q, 0)
	second := s.Plan(e, q, 0)
	if len(first.Candidates) == 0 || len(second.Candidates) == 0 {
		t.Fatal("empty plans")
	}
	for i := range first.Candidates {
		if first.Candidates[i] != second.Candidates[i] {
			t.Fatalf("memoized candidates differ at %d: %v vs %v", i, first.Candidates[i], second.Candidates[i])
		}
	}
	if st := s.PlanMemo().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("memo stats = %+v, want 1 hit / 1 miss", st)
	}
}
