package core

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func schedEnv(t *testing.T, level workflow.SLOLevel) (*sched.Env, *queue.Set) {
	t.Helper()
	return envFor(t, workflow.EvaluationApps(), level)
}

// envFor builds a fresh planning environment over apps at the SLO level.
func envFor(tb testing.TB, apps []*workflow.App, level workflow.SLOLevel) (*sched.Env, *queue.Set) {
	tb.Helper()
	reg := profile.Table3Registry()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, level, reg)
	}
	env := &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
	}
	qs := queue.NewSet(apps)
	qs.Bind(env.Cluster)
	return env, qs
}

func pushJobs(q *queue.AFW, app *workflow.App, appIdx, n int, arrival time.Duration, slo time.Duration) {
	for i := 0; i < n; i++ {
		inst := queue.NewInstance(i, appIdx, app, arrival, slo)
		q.Push(&queue.Job{Instance: inst, Stage: q.Stage, EnqueuedAt: arrival})
	}
}

func TestESGPlanReturnsCandidates(t *testing.T) {
	env, qs := schedEnv(t, workflow.Moderate)
	e := New()
	q := qs.Get(0, 0)
	pushJobs(q, env.Apps[0], 0, 3, 0, env.SLOs[0])
	plan := e.Plan(env, q, time.Millisecond)
	if plan.Empty() {
		t.Fatalf("ESG produced no candidates")
	}
	if len(plan.Candidates) > e.K {
		t.Errorf("candidates %d exceed K=%d", len(plan.Candidates), e.K)
	}
	for _, c := range plan.Candidates {
		if c.Batch < 1 || c.Batch > q.Len() {
			t.Errorf("candidate batch %d outside [1, %d]", c.Batch, q.Len())
		}
	}
	if plan.PrePlanned {
		t.Errorf("ESG plans are adaptive, not pre-planned")
	}
}

func TestESGAdaptsToElapsedTime(t *testing.T) {
	// A queue whose instance has burned most of its budget must receive a
	// faster (more expensive) first-stage config than a fresh one.
	env, qs := schedEnv(t, workflow.Moderate)
	e := New()
	reg := profile.Table3Registry()
	o := env.Oracle

	fresh := qs.Get(0, 0)
	pushJobs(fresh, env.Apps[0], 0, 1, 0, env.SLOs[0])
	freshPlan := e.Plan(env, fresh, 0)

	late := qs.Get(0, 1)
	inst := queue.NewInstance(9, 0, env.Apps[0], 0, env.SLOs[0])
	inst.CompleteStage(0, 0, env.SLOs[0]/2) // half the budget burned on stage 0
	late.Push(&queue.Job{Instance: inst, Stage: 1, EnqueuedAt: env.SLOs[0] / 2})
	latePlan := e.Plan(env, late, env.SLOs[0]/2)

	if freshPlan.Empty() || latePlan.Empty() {
		t.Fatalf("plans empty")
	}
	freshTime := o.Estimate(env.Apps[0].Stage(0).Function, freshPlan.Candidates[0]).Time
	lateTime := o.Estimate(env.Apps[0].Stage(1).Function, latePlan.Candidates[0]).Time
	// Compare normalized against each stage's base exec.
	freshRatio := float64(freshTime) / float64(reg.MustLookup(env.Apps[0].Stage(0).Function).BaseExec)
	lateRatio := float64(lateTime) / float64(reg.MustLookup(env.Apps[0].Stage(1).Function).BaseExec)
	if lateRatio >= freshRatio {
		t.Errorf("late stage not scheduled faster: fresh %.3f, late %.3f", freshRatio, lateRatio)
	}
}

func TestESGBatchBoundedByQueue(t *testing.T) {
	env, qs := schedEnv(t, workflow.Relaxed)
	e := New()
	q := qs.Get(2, 0)
	pushJobs(q, env.Apps[2], 2, 2, 0, env.SLOs[2])
	plan := e.Plan(env, q, 0)
	for _, c := range plan.Candidates {
		if c.Batch > 2 {
			t.Errorf("batch %d exceeds queue length 2", c.Batch)
		}
	}
}

func TestESGAblationFilters(t *testing.T) {
	env, qs := schedEnv(t, workflow.Relaxed)

	noShare := New(WithoutGPUSharing())
	q := qs.Get(0, 0)
	pushJobs(q, env.Apps[0], 0, 4, 0, env.SLOs[0])
	plan := noShare.Plan(env, q, 0)
	for _, c := range plan.Candidates {
		if c.GPU != env.Cluster.Cfg.NodeGPU {
			t.Errorf("no-sharing candidate uses %d vGPUs, want whole GPU", c.GPU)
		}
	}
	if mc := noShare.MinConfig(env, q); mc.GPU != env.Cluster.Cfg.NodeGPU {
		t.Errorf("no-sharing min config uses %d vGPUs", mc.GPU)
	}

	noBatch := New(WithoutBatching())
	q2 := qs.Get(1, 0)
	pushJobs(q2, env.Apps[1], 1, 8, 0, env.SLOs[1])
	plan2 := noBatch.Plan(env, q2, 0)
	for _, c := range plan2.Candidates {
		if c.Batch != 1 {
			t.Errorf("no-batching candidate has batch %d", c.Batch)
		}
	}
}

func TestESGNames(t *testing.T) {
	if New().Name() != "ESG" {
		t.Errorf("name = %q", New().Name())
	}
	if New(WithoutGPUSharing()).Name() != "ESG-noshare" {
		t.Errorf("ablation name wrong")
	}
	if New(WithoutBatching()).Name() != "ESG-nobatch" {
		t.Errorf("ablation name wrong")
	}
	if New(WithoutGPUSharing(), WithoutBatching()).Name() != "ESG-noshare-nobatch" {
		t.Errorf("double ablation name wrong")
	}
}

func TestESGGroupSizeAffectsSequenceLength(t *testing.T) {
	env, qs := schedEnv(t, workflow.Moderate)
	// The 5-stage expanded app with group size 5 searches all 5 stages at
	// once; with group size 1 it searches one stage at a time. Both must
	// produce valid plans.
	for _, g := range []int{1, 2, 3, 5} {
		e := New(WithGroupSize(g))
		q := qs.Get(3, 0)
		if q.Empty() {
			pushJobs(q, env.Apps[3], 3, 1, 0, env.SLOs[3])
		}
		plan := e.Plan(env, q, 0)
		if plan.Empty() {
			t.Errorf("group size %d: empty plan", g)
		}
	}
}

func TestESGOverheadRecorded(t *testing.T) {
	env, qs := schedEnv(t, workflow.Moderate)
	env.Overhead = sched.OverheadFixed
	env.FixedOverhead = 4 * time.Millisecond
	e := New()
	q := qs.Get(0, 0)
	pushJobs(q, env.Apps[0], 0, 1, 0, env.SLOs[0])
	plan := e.Plan(env, q, 0)
	if plan.Overhead != 4*time.Millisecond {
		t.Errorf("overhead = %v", plan.Overhead)
	}
}

func TestESGMarginTightensTarget(t *testing.T) {
	// With a blown budget the plan falls back to drain configs; with a
	// generous budget and margin 1.0 vs 0.5, the tighter margin must pick
	// an equally fast or faster first stage.
	env, qs := schedEnv(t, workflow.Strict)
	q := qs.Get(0, 0)
	pushJobs(q, env.Apps[0], 0, 1, 0, env.SLOs[0])

	loose := New(WithMargin(1.0)).Plan(env, q, 0)
	tight := New(WithMargin(0.5)).Plan(env, q, 0)
	if loose.Empty() || tight.Empty() {
		t.Fatalf("plans empty")
	}
	fn := env.Apps[0].Stage(0).Function
	lt := env.Oracle.Estimate(fn, loose.Candidates[0]).Time
	tt := env.Oracle.Estimate(fn, tight.Candidates[0]).Time
	if tt > lt {
		t.Errorf("tighter margin picked slower config: %v vs %v", tt, lt)
	}
}
