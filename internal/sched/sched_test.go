package sched

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

func testEnv(t *testing.T) (*Env, *queue.Set) {
	t.Helper()
	reg := profile.Table3Registry()
	clu := cluster.MustNew(cluster.DefaultConfig())
	apps := workflow.EvaluationApps()
	oracle := profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default())
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, workflow.Moderate, reg)
	}
	env := &Env{
		Registry: reg,
		Oracle:   oracle,
		Cluster:  clu,
		Apps:     apps,
		SLOs:     slos,
	}
	qs := queue.NewSet(apps)
	qs.Bind(clu)
	return env, qs
}

func TestMeanServiceSplit(t *testing.T) {
	reg := profile.Table3Registry()
	app := workflow.ImageClassificationApp() // 86, 293, 147 ms
	slo := time.Second
	split := MeanServiceSplit(app, reg, slo)
	if len(split) != 3 {
		t.Fatalf("split has %d entries", len(split))
	}
	var sum time.Duration
	for _, d := range split {
		sum += d
	}
	if diff := sum - slo; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("split sums to %v, want %v", sum, slo)
	}
	// Proportional to base exec times: stage 1 (293ms) gets the most.
	if !(split[1] > split[2] && split[2] > split[0]) {
		t.Errorf("split not proportional: %v", split)
	}
}

// TestMeanServiceSplitSingleStageApp: a single-stage DAG's split is the
// whole SLO — the one-element proportional distribution.
func TestMeanServiceSplitSingleStageApp(t *testing.T) {
	app := workflow.Chain("solo", profile.Classification)
	got := MeanServiceSplit(app, profile.Table3Registry(), time.Second)
	if len(got) != 1 || got[0] != time.Second {
		t.Errorf("single-stage split = %v, want [1s]", got)
	}
}

// TestMeanServiceSplitZeroSLO: a zero SLO distributes to all-zero budgets
// (every stage infeasible) without dividing by zero or panicking.
func TestMeanServiceSplitZeroSLO(t *testing.T) {
	app := workflow.EvaluationApps()[0]
	got := MeanServiceSplit(app, profile.Table3Registry(), 0)
	if len(got) != app.Len() {
		t.Fatalf("split has %d budgets, want %d", len(got), app.Len())
	}
	for i, d := range got {
		if d != 0 {
			t.Errorf("stage %d budget = %v, want 0", i, d)
		}
	}
}

func TestStopwatchModes(t *testing.T) {
	envNone := &Env{Overhead: OverheadNone}
	if d := StartStopwatch(envNone).Elapsed(); d != 0 {
		t.Errorf("OverheadNone elapsed = %v", d)
	}
	envFixed := &Env{Overhead: OverheadFixed, FixedOverhead: 3 * time.Millisecond}
	if d := StartStopwatch(envFixed).Elapsed(); d != 3*time.Millisecond {
		t.Errorf("OverheadFixed elapsed = %v", d)
	}
	envMeasured := &Env{Overhead: OverheadMeasured}
	sw := StartStopwatch(envMeasured)
	if d := sw.Elapsed(); d < 0 {
		t.Errorf("measured elapsed negative: %v", d)
	}
}

func TestLocalityPlaceEntryPrefersWarmHome(t *testing.T) {
	env, qs := testEnv(t)
	q := qs.Get(0, 0)
	home := env.Cluster.HomeInvoker(QueueKey(q))
	home.AddWarm(q.FnID, 0)

	cfg := profile.Config{Batch: 1, CPU: 2, GPU: 1}
	inst := queue.NewInstance(0, 0, env.Apps[0], 0, time.Second)
	jobs := []*queue.Job{{Instance: inst, Stage: 0}}
	got := LocalityPlace(env, q, jobs, cfg, time.Millisecond)
	if got != home {
		t.Errorf("entry stage placed on %d, want warm home %d", got.ID, home.ID)
	}
}

func TestLocalityPlacePrefersAnyWarmOverColdHome(t *testing.T) {
	env, qs := testEnv(t)
	q := qs.Get(0, 0)
	home := env.Cluster.HomeInvoker(QueueKey(q))
	other := env.Cluster.Invokers[(home.ID+5)%len(env.Cluster.Invokers)]
	other.AddWarm(q.FnID, 0)

	cfg := profile.Config{Batch: 1, CPU: 2, GPU: 1}
	inst := queue.NewInstance(0, 0, env.Apps[0], 0, time.Second)
	jobs := []*queue.Job{{Instance: inst, Stage: 0}}
	got := LocalityPlace(env, q, jobs, cfg, time.Millisecond)
	if got != other {
		t.Errorf("placed on %d, want the warm invoker %d (cold starts dwarf transfers)", got.ID, other.ID)
	}
}

func TestLocalityPlacePredecessorInvoker(t *testing.T) {
	env, qs := testEnv(t)
	q := qs.Get(0, 1) // second stage of image classification
	inst := queue.NewInstance(0, 0, env.Apps[0], 0, time.Second)
	pred := env.Cluster.Invokers[9]
	pred.AddWarm(q.FnID, 0)
	inst.CompleteStage(0, pred.ID, time.Millisecond)
	jobs := []*queue.Job{{Instance: inst, Stage: 1}}
	cfg := profile.Config{Batch: 1, CPU: 2, GPU: 1}
	got := LocalityPlace(env, q, jobs, cfg, 2*time.Millisecond)
	if got != pred {
		t.Errorf("successor stage placed on %d, want predecessor invoker 9", got.ID)
	}
}

func TestLocalityPlaceColdFallbackMostFree(t *testing.T) {
	env, qs := testEnv(t)
	q := qs.Get(0, 0)
	// Load every invoker except #12.
	for _, inv := range env.Cluster.Invokers {
		if inv.ID == 12 {
			continue
		}
		if err := inv.Acquire(units.Resources{CPU: 2, GPU: 2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	inst := queue.NewInstance(0, 0, env.Apps[0], 0, time.Second)
	jobs := []*queue.Job{{Instance: inst, Stage: 0}}
	got := LocalityPlace(env, q, jobs, profile.Config{Batch: 1, CPU: 1, GPU: 1}, 0)
	if got == nil {
		t.Fatalf("no placement found")
	}
	home := env.Cluster.HomeInvoker(QueueKey(q))
	// Home fits (only 2/16 CPU used), so home is still preferred; with a
	// bigger request that only #12 can host, the fallback must find #12.
	if got != home {
		t.Errorf("small task placed on %d, want home %d", got.ID, home.ID)
	}
	big := profile.Config{Batch: 1, CPU: 15, GPU: 6}
	got = LocalityPlace(env, q, jobs, big, 0)
	if got == nil || got.ID != 12 {
		t.Errorf("big task placed on %v, want most-free invoker 12", got)
	}
}

func TestLocalityPlaceReturnsNilWhenFull(t *testing.T) {
	env, qs := testEnv(t)
	for _, inv := range env.Cluster.Invokers {
		if err := inv.Acquire(units.Resources{CPU: 16, GPU: 7}, 0); err != nil {
			t.Fatal(err)
		}
	}
	q := qs.Get(0, 0)
	inst := queue.NewInstance(0, 0, env.Apps[0], 0, time.Second)
	jobs := []*queue.Job{{Instance: inst, Stage: 0}}
	if got := LocalityPlace(env, q, jobs, profile.MinConfig, 0); got != nil {
		t.Errorf("placement on a full cluster: invoker %d", got.ID)
	}
}

func TestFragmentationPlaceBestFit(t *testing.T) {
	env, _ := testEnv(t)
	// Invoker 0: 3 GPUs free; invoker 1: 5 GPUs free; rest full on GPU.
	for i, inv := range env.Cluster.Invokers {
		var use units.VGPU
		switch i {
		case 0:
			use = 4
		case 1:
			use = 2
		default:
			use = 7
		}
		if err := inv.Acquire(units.Resources{GPU: use}, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := profile.Config{Batch: 1, CPU: 1, GPU: 2}
	got := FragmentationPlace(env, cfg)
	// Best fit on GPU: invoker 0 leaves 1 free, invoker 1 leaves 3 free.
	if got == nil || got.ID != 0 {
		t.Errorf("best-fit chose %v, want invoker 0", got)
	}
	// A request too big for every node returns nil.
	if got := FragmentationPlace(env, profile.Config{Batch: 1, CPU: 1, GPU: 6}); got != nil {
		t.Errorf("oversized request placed on %d", got.ID)
	}
}

func TestQueueKeyDistinguishesApps(t *testing.T) {
	_, qs := testEnv(t)
	// Super-resolution appears in several apps; keys must differ per AFW
	// queue so home invokers can differ.
	k1 := QueueKey(qs.Get(0, 0)) // image classification, stage 0 = super-res
	k2 := QueueKey(qs.Get(1, 1)) // depth recognition, stage 1 = super-res
	if k1 == k2 {
		t.Errorf("AFW queues of different apps share a key: %q", k1)
	}
}

func TestPlanEmpty(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Errorf("zero plan not empty")
	}
	p.Candidates = []profile.Config{profile.MinConfig}
	if p.Empty() {
		t.Errorf("non-zero plan empty")
	}
}

func TestDefaultMinConfig(t *testing.T) {
	if DefaultMinConfig() != profile.MinConfig {
		t.Errorf("DefaultMinConfig mismatch")
	}
}
