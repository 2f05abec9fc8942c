// Package baselines_test exercises the four re-implemented comparison
// schedulers through the shared sched.Scheduler interface, checking each
// one's §4.2 characterization: INFless and FaST-GShare adapt per stage but
// split SLOs statically and place by fragmentation; Orion and Aquatope fix
// configurations up front and suffer configuration misses.
package baselines_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/gswarm"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func env(t testing.TB, level workflow.SLOLevel) (*sched.Env, *queue.Set) {
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

func fill(q *queue.AFW, app *workflow.App, appIdx, n int, slo time.Duration) {
	for i := 0; i < n; i++ {
		inst := queue.NewInstance(i, appIdx, app, 0, slo)
		q.Push(&queue.Job{Instance: inst, Stage: q.Stage, EnqueuedAt: 0})
	}
}

func TestAllSchedulersSatisfyInterface(t *testing.T) {
	var _ sched.Scheduler = infless.New()
	var _ sched.Scheduler = fastgshare.New()
	var _ sched.Scheduler = orion.New()
	var _ sched.Scheduler = aquatope.New(1)
}

func TestSchedulerNames(t *testing.T) {
	names := map[sched.Scheduler]string{
		infless.New():    "INFless",
		fastgshare.New(): "FaST-GShare",
		orion.New():      "Orion",
		aquatope.New(1):  "Aquatope",
	}
	for s, want := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestINFlessPlansWithinBudget(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := infless.New()
	q := qs.Get(0, 0)
	fill(q, e.Apps[0], 0, 4, e.SLOs[0])
	plan := s.Plan(e, q, 0)
	if plan.Empty() {
		t.Fatalf("INFless produced no candidates")
	}
	if plan.PrePlanned {
		t.Errorf("INFless is per-stage adaptive, not pre-planned")
	}
	split := sched.MeanServiceSplit(e.Apps[0], e.Registry, e.SLOs[0])
	for _, c := range plan.Candidates {
		est := e.Oracle.Estimate(q.Function, c)
		if est.Time > split[0] {
			t.Errorf("candidate %v exceeds its stage budget (%v > %v)", c, est.Time, split[0])
		}
		if c.Batch > q.Len() {
			t.Errorf("candidate batch %d exceeds queue", c.Batch)
		}
	}
}

func TestINFlessOverAllocatesVersusFaSTGShare(t *testing.T) {
	// §5.1: INFless prefers fast, resource-hungry configs; FaST-GShare
	// squeezes GPU shares and runs close to the deadline.
	e, qs := env(t, workflow.Moderate)
	qi := qs.Get(0, 0)
	fill(qi, e.Apps[0], 0, 4, e.SLOs[0])
	pi := infless.New().Plan(e, qi, 0)

	qf := qs.Get(1, 0)
	fill(qf, e.Apps[1], 1, 4, e.SLOs[1])
	pf := fastgshare.New().Plan(e, qf, 0)

	if pi.Empty() || pf.Empty() {
		t.Fatalf("plans empty")
	}
	ci, cf := pi.Candidates[0], pf.Candidates[0]
	costI := e.Oracle.Estimate(qi.Function, ci).JobCost
	costF := e.Oracle.Estimate(qf.Function, cf).JobCost
	// Normalize per-stage base cost: compare against each stage's minimum.
	minI := e.Oracle.MustTable(qi.Function).MinJobCost
	minF := e.Oracle.MustTable(qf.Function).MinJobCost
	ratioI := float64(costI) / float64(minI)
	ratioF := float64(costF) / float64(minF)
	if ratioI <= ratioF {
		t.Errorf("INFless cost ratio %.2f not above FaST-GShare %.2f", ratioI, ratioF)
	}
}

func TestFaSTGShareRunsNearDeadline(t *testing.T) {
	e, qs := env(t, workflow.Relaxed)
	s := fastgshare.New()
	q := qs.Get(2, 0)
	fill(q, e.Apps[2], 2, 1, e.SLOs[2])
	plan := s.Plan(e, q, 0)
	if plan.Empty() {
		t.Fatalf("no candidates")
	}
	split := sched.MeanServiceSplit(e.Apps[2], e.Registry, e.SLOs[2])
	est := e.Oracle.Estimate(q.Function, plan.Candidates[0])
	if est.Time > split[0] {
		t.Errorf("FaST-GShare exceeded the stage budget")
	}
	// "Largest latency": within 50% of the deadline.
	if float64(est.Time) < 0.5*float64(split[0]) {
		t.Errorf("FaST-GShare config much faster than deadline: %v of %v", est.Time, split[0])
	}
	if plan.Candidates[0].GPU != 1 {
		t.Errorf("FaST-GShare picked %d vGPUs when 1 suffices", plan.Candidates[0].GPU)
	}
}

func TestOrionStaticPlanAndMisses(t *testing.T) {
	e, qs := env(t, workflow.Relaxed)
	s := orion.New()
	q0 := qs.Get(0, 0)
	fill(q0, e.Apps[0], 0, 16, e.SLOs[0])
	p0 := s.Plan(e, q0, 0)
	if !p0.PrePlanned {
		t.Errorf("Orion plan not marked pre-planned")
	}
	if len(p0.Candidates) != 1 {
		t.Fatalf("Orion returned %d candidates", len(p0.Candidates))
	}
	if p0.Overhead <= 0 {
		t.Errorf("Orion charged no search overhead")
	}
	// A later stage with a short queue must clamp and record a miss when
	// the preset batch exceeds it.
	inst := q0.Oldest().Instance
	inst.CompleteStage(0, 0, time.Millisecond)
	q1 := qs.Get(0, 1)
	q1.Push(&queue.Job{Instance: inst, Stage: 1, EnqueuedAt: time.Millisecond})
	p1 := s.Plan(e, q1, time.Millisecond)
	cfg := p1.Candidates[0]
	if cfg.Batch > q1.Len() {
		t.Errorf("clamping failed: batch %d for queue of %d", cfg.Batch, q1.Len())
	}
	// The second plan must not charge the search overhead again.
	if p1.Overhead != 0 {
		t.Errorf("Orion charged overhead twice: %v", p1.Overhead)
	}
}

func TestOrionCutOffControlsOverhead(t *testing.T) {
	e, qs := env(t, workflow.Strict)
	short := orion.New()
	short.CutOff = time.Millisecond
	long := orion.New()
	long.CutOff = 100 * time.Millisecond

	q := qs.Get(3, 0)
	fill(q, e.Apps[3], 3, 1, e.SLOs[3])
	ps := short.Plan(e, q, 0)
	if ps.Overhead > time.Millisecond {
		t.Errorf("short cutoff overhead = %v", ps.Overhead)
	}
	q2 := qs.Get(2, 0)
	fill(q2, e.Apps[2], 2, 1, e.SLOs[2])
	pl := long.Plan(e, q2, 0)
	if pl.Overhead > 100*time.Millisecond {
		t.Errorf("overhead exceeds cutoff: %v", pl.Overhead)
	}
}

func TestOrionDisabledOverhead(t *testing.T) {
	e, qs := env(t, workflow.Strict)
	s := orion.New()
	s.ChargeOverhead = false
	q := qs.Get(0, 0)
	fill(q, e.Apps[0], 0, 1, e.SLOs[0])
	if p := s.Plan(e, q, 0); p.Overhead != 0 {
		t.Errorf("overhead charged while disabled: %v", p.Overhead)
	}
}

func TestAquatopeStaticPlan(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := aquatope.New(7)
	s.Bootstrap, s.Rounds, s.PerRound = 20, 5, 2 // keep the test quick
	q := qs.Get(0, 0)
	fill(q, e.Apps[0], 0, 16, e.SLOs[0])
	p := s.Plan(e, q, 0)
	if !p.PrePlanned {
		t.Errorf("Aquatope plan not pre-planned")
	}
	if p.Overhead != 0 {
		t.Errorf("Aquatope charged overhead %v; offline training is free at run time", p.Overhead)
	}
	if len(p.Candidates) != 1 {
		t.Fatalf("%d candidates", len(p.Candidates))
	}
	// Same queue again: the trained plan is stable.
	p2 := s.Plan(e, q, time.Second)
	if p2.Candidates[0] != p.Candidates[0] {
		t.Errorf("Aquatope config changed between calls: %v vs %v", p2.Candidates[0], p.Candidates[0])
	}
}

func TestAquatopeMissOnShortQueue(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	s := aquatope.New(7)
	s.Bootstrap, s.Rounds, s.PerRound = 20, 5, 2
	// A full stage-1 queue reads the stage's trained preset unclamped.
	qFull := qs.Get(2, 1)
	fill(qFull, e.Apps[2], 2, e.Oracle.Space.MaxBatch(), e.SLOs[2])
	preset := s.Plan(e, qFull, 0).Candidates[0].Batch
	// A stage-1 queue holding one job clamps the preset to it, and counts
	// a miss exactly when the preset is larger.
	short := queue.NewSet(e.Apps).Get(2, 1)
	inst := queue.NewInstance(99, 2, e.Apps[2], 0, e.SLOs[2])
	inst.CompleteStage(0, 0, time.Millisecond)
	short.Push(&queue.Job{Instance: inst, Stage: 1, EnqueuedAt: time.Millisecond})
	p := s.Plan(e, short, time.Millisecond)
	if p.Candidates[0].Batch != 1 {
		t.Errorf("clamped batch = %d, want 1", p.Candidates[0].Batch)
	}
	if p.ConfigMiss != (preset > 1) {
		t.Errorf("ConfigMiss = %v with trained batch %d for a 1-job queue", p.ConfigMiss, preset)
	}
}

// TestPrePlannedPlanAllocationFree pins the pre-planned schedulers' Plan at
// zero allocations once the app is planned, on a full queue and on a
// one-job queue that clamps the preset (a configuration miss).
func TestPrePlannedPlanAllocationFree(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	aq := aquatope.New(7)
	aq.Bootstrap, aq.Rounds, aq.PerRound = 20, 5, 2
	full := qs.Get(3, 0)
	fill(full, e.Apps[3], 3, e.Oracle.Space.MaxBatch(), e.SLOs[3])
	short := queue.NewSet(e.Apps).Get(3, 0)
	fill(short, e.Apps[3], 3, 1, e.SLOs[3])
	for _, s := range []sched.Scheduler{orion.New(), aq, gswarm.New()} {
		for _, q := range []*queue.AFW{full, short} {
			s.Plan(e, q, 0)
			if allocs := testing.AllocsPerRun(10, func() { s.Plan(e, q, 0) }); allocs != 0 {
				t.Errorf("%s Plan on a %d-job queue allocates %.0f times", s.Name(), q.Len(), allocs)
			}
		}
	}
}

// TestAquatopeTrainedConfigsGolden pins the configurations the paper's
// training shape (100/50/5) deploys for the four evaluation apps at seed
// 42, so a change to the GP or the training loop cannot drift them
// unnoticed. Training ignores the SLO level.
func TestAquatopeTrainedConfigsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four apps at the paper's shape")
	}
	want := [][]string{
		{"(b=3,c=6,g=1)", "(b=1,c=4,g=1)", "(b=2,c=7,g=1)"},
		{"(b=4,c=5,g=2)", "(b=4,c=8,g=4)", "(b=1,c=4,g=1)"},
		{"(b=4,c=3,g=2)", "(b=4,c=5,g=2)", "(b=1,c=3,g=1)"},
		{"(b=4,c=8,g=4)", "(b=4,c=3,g=1)", "(b=4,c=8,g=4)", "(b=6,c=7,g=7)", "(b=6,c=7,g=4)"},
	}
	e, qs := env(t, workflow.Moderate)
	s := aquatope.New(42)
	if len(e.Apps) != len(want) {
		t.Fatalf("%d evaluation apps, want %d", len(e.Apps), len(want))
	}
	for a, app := range e.Apps {
		got := make([]string, app.Len())
		for st := range got {
			q := qs.Get(a, st)
			fill(q, app, a, e.Oracle.Space.MaxBatch(), e.SLOs[a])
			got[st] = s.Plan(e, q, 0).Candidates[0].String()
		}
		if !slices.Equal(got, want[a]) {
			t.Errorf("app %d trained to %v, want %v", a, got, want[a])
		}
	}
}

// BenchmarkAquatopeTrain is the offline BO training of each evaluation app
// at the paper's shape, one sub-benchmark per app (app 3 has five stages).
func BenchmarkAquatopeTrain(b *testing.B) {
	e, qs := env(b, workflow.Moderate)
	for a, app := range e.Apps {
		q := qs.Get(a, 0)
		fill(q, app, a, 1, e.SLOs[a])
		b.Run(fmt.Sprintf("app%d", a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				aquatope.New(42).Plan(e, q, 0)
			}
		})
	}
}

func TestDeterministicTrainingAcrossInstances(t *testing.T) {
	// Two Aquatope schedulers with the same seed must train to identical
	// plans (reproducibility of experiments).
	e, qs := env(t, workflow.Moderate)
	q := qs.Get(0, 0)
	fill(q, e.Apps[0], 0, 16, e.SLOs[0])
	a := aquatope.New(42)
	a.Bootstrap, a.Rounds, a.PerRound = 20, 5, 2
	b := aquatope.New(42)
	b.Bootstrap, b.Rounds, b.PerRound = 20, 5, 2
	pa := a.Plan(e, q, 0)
	pb := b.Plan(e, q, 0)
	if pa.Candidates[0] != pb.Candidates[0] {
		t.Errorf("same-seed training diverged: %v vs %v", pa.Candidates[0], pb.Candidates[0])
	}
}

// TestQueuedTrainingMatchesLocal shares one memo between three schedulers
// planning concurrently, each over its own Env, while another goroutine
// trains whatever their first Plans queue: every app must plan exactly as
// a scheduler without a memo plans it, and each key's first lookup must be
// its only miss.
func TestQueuedTrainingMatchesLocal(t *testing.T) {
	quick := func(memo *aquatope.TrainingMemo) *aquatope.Scheduler {
		s := aquatope.New(42)
		s.Bootstrap, s.Rounds, s.PerRound = 20, 5, 2
		s.Memo = memo
		return s
	}
	// plans returns every stage's plan for a full queue, app by app.
	plans := func(s *aquatope.Scheduler, level workflow.SLOLevel) [][]sched.Plan {
		e, qs := env(t, level)
		out := make([][]sched.Plan, len(e.Apps))
		for a, app := range e.Apps {
			for st := 0; st < app.Len(); st++ {
				q := qs.Get(a, st)
				fill(q, app, a, e.Oracle.Space.MaxBatch(), e.SLOs[a])
				out[a] = append(out[a], s.Plan(e, q, 0))
			}
		}
		return out
	}
	want := plans(quick(nil), workflow.Moderate)

	memo := aquatope.NewTrainingMemo()
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				memo.RunQueued()
				runtime.Gosched()
			}
		}
	}()
	levels := []workflow.SLOLevel{workflow.Strict, workflow.Moderate, workflow.Relaxed}
	got := make([][][]sched.Plan, len(levels))
	var wg sync.WaitGroup
	for i, level := range levels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = plans(quick(memo), level)
		}()
	}
	wg.Wait()
	close(stop)
	<-drained

	for i, level := range levels {
		for a := range want {
			if !reflect.DeepEqual(got[i][a], want[a]) {
				t.Errorf("%v: app %d planned %v with the shared memo, %v without", level, a, got[i][a], want[a])
			}
		}
	}
	if st := memo.Stats(); st.Hits != 8 || st.Misses != 4 {
		t.Errorf("memo stats = %+v, want 8 hits and 4 misses", st)
	}
}

func TestMinConfigs(t *testing.T) {
	e, qs := env(t, workflow.Moderate)
	q := qs.Get(0, 0)
	for _, s := range []sched.Scheduler{infless.New(), fastgshare.New(), orion.New(), aquatope.New(1)} {
		if mc := s.MinConfig(e, q); mc != profile.MinConfig {
			t.Errorf("%s min config = %v", s.Name(), mc)
		}
	}
}
