// Package gswarm_test pins the static-placement characterization: the
// mined table is deterministic, co-located users of a function share one
// pinned invoker, placement never migrates off a live pin, and a crashed
// pin fails over without ever choosing a down invoker.
package gswarm_test

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/gswarm"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func env(t *testing.T) (*sched.Env, *queue.Set) {
	t.Helper()
	reg := profile.Table3Registry()
	apps := workflow.ScaleApps() // eight chains over six functions: heavy co-occurrence
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, workflow.Moderate, reg)
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
		for s := 0; s < q.Stage; s++ {
			inst.CompleteStage(s, 0, 0)
		}
		q.Push(&queue.Job{Instance: inst, Stage: q.Stage, EnqueuedAt: 0})
	}
}

func TestInterfaces(t *testing.T) {
	var _ sched.Scheduler = gswarm.New()
	var _ sched.PlanCaching = gswarm.New()
	if got := gswarm.New().Name(); got != "GSwarm" {
		t.Errorf("Name() = %q, want GSwarm", got)
	}
}

// TestStaticTableDeterministic: two fresh schedulers mine the identical
// table from the same environment — every pin agrees.
func TestStaticTableDeterministic(t *testing.T) {
	e, _ := env(t)
	a, b := gswarm.New(), gswarm.New()
	for appIdx, app := range e.Apps {
		for stage := 0; stage < app.Len(); stage++ {
			if pa, pb := a.Pin(e, appIdx, stage), b.Pin(e, appIdx, stage); pa != pb {
				t.Fatalf("app %d stage %d: pins disagree (%d vs %d)", appIdx, stage, pa, pb)
			}
		}
	}
}

// TestCoOccurrenceSharing: within one server, every stage using a function
// shares the function's single pinned invoker — the grouping that lets
// co-occurring workflows reuse one persistent replica per model.
func TestCoOccurrenceSharing(t *testing.T) {
	e, _ := env(t)
	s := gswarm.New()
	type use struct{ app, stage int }
	byServerFn := make(map[[2]interface{}][]use) // (server, function) -> users
	for appIdx, app := range e.Apps {
		for stage := 0; stage < app.Len(); stage++ {
			id := s.Pin(e, appIdx, stage)
			server := id / gswarm.DefaultServerSize
			k := [2]interface{}{server, app.Stage(stage).Function}
			byServerFn[k] = append(byServerFn[k], use{appIdx, stage})
		}
	}
	shared := 0
	for k, users := range byServerFn {
		first := s.Pin(e, users[0].app, users[0].stage)
		for _, u := range users[1:] {
			if got := s.Pin(e, u.app, u.stage); got != first {
				t.Fatalf("server %v function %v: users pinned to both %d and %d", k[0], k[1], first, got)
			}
		}
		if len(users) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no function shared a pinned invoker across stages — co-occurrence grouping had no effect")
	}
}

// TestPlacePinnedAndStable: placement answers from the table — the same
// invoker every time — and the plan is the table's static configuration,
// batch-clamped with a recorded miss on short queues.
func TestPlacePinnedAndStable(t *testing.T) {
	e, qs := env(t)
	s := gswarm.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 1)

	plan := s.Plan(e, q, 0)
	if len(plan.Candidates) != 1 || !plan.PrePlanned {
		t.Fatalf("plan = %+v, want one pre-planned candidate", plan)
	}
	cfg := plan.Candidates[0]
	if cfg.Batch != 1 {
		t.Fatalf("batch %d on a length-1 queue", cfg.Batch)
	}
	want := e.Cluster.Invokers[s.Pin(e, 0, 0)]
	for i := 0; i < 3; i++ {
		if got := s.Place(e, q, q.Peek(1), cfg, 0); got != want {
			t.Fatalf("placement %d: got invoker %v, want pinned %d", i, got, want.ID)
		}
	}
}

// TestConfigMissOnShortQueue: a preset batch wider than the queue clamps
// and records the miss (Table 4's pre-planned denominator).
func TestConfigMissOnShortQueue(t *testing.T) {
	e, qs := env(t)
	s := gswarm.New()
	// Find a coordinate whose static batch exceeds 1; the scale set's
	// relaxed budgets make wide batches common.
	for appIdx, app := range e.Apps {
		for stage := 0; stage < app.Len(); stage++ {
			q := qs.Get(appIdx, stage)
			if q.Len() == 0 {
				fill(e, q, appIdx, 1)
			}
			plan := s.Plan(e, q, 0)
			if plan.ConfigMiss {
				if got := plan.Candidates[0].Batch; got != q.Len() {
					t.Fatalf("miss clamped to %d, want queue length %d", got, q.Len())
				}
				return
			}
		}
	}
	t.Skip("no static batch wider than 1 in this profile — clamp path not reachable here")
}

// TestPinFailover: a crashed pin fails over to a live invoker (never a
// down one); recovery restores the original pin — the table itself never
// changes.
func TestPinFailover(t *testing.T) {
	e, qs := env(t)
	s := gswarm.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 1)
	cfg := s.Plan(e, q, 0).Candidates[0]

	pin := e.Cluster.Invokers[s.Pin(e, 0, 0)]
	pin.Crash(0)
	got := s.Place(e, q, q.Peek(1), cfg, time.Millisecond)
	if got == nil {
		t.Fatal("no failover placement with one invoker down")
	}
	if !got.Up() || got == pin {
		t.Fatalf("failover chose the crashed invoker %d", got.ID)
	}
	pin.Recover(2 * time.Millisecond)
	if back := s.Place(e, q, q.Peek(1), cfg, 3*time.Millisecond); back != pin {
		t.Errorf("after recovery placed on %d, want the original pin %d", back.ID, pin.ID)
	}
}

// TestBusyPinWaits: a live pin without capacity means "wait" (nil), not a
// migration — the zero-switching property.
func TestBusyPinWaits(t *testing.T) {
	e, qs := env(t)
	s := gswarm.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 1)
	cfg := s.Plan(e, q, 0).Candidates[0]

	pin := e.Cluster.Invokers[s.Pin(e, 0, 0)]
	if err := pin.Acquire(pin.Free(), 0); err != nil {
		t.Fatalf("saturating the pin: %v", err)
	}
	if got := s.Place(e, q, q.Peek(1), cfg, 0); got != nil {
		t.Errorf("placed on invoker %d, want nil (wait for the busy pin)", got.ID)
	}
}

// TestPrimeEmptyAppList: an environment with no applications primes to an
// empty table without panicking, and the build still counts as the one
// cold miss.
func TestPrimeEmptyAppList(t *testing.T) {
	reg := profile.Table3Registry()
	e := &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
	}
	s := gswarm.New()
	s.Prime(e)
	if st := s.PlanCacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats after Prime = %+v, want 1 miss / 0 hits", st)
	}
}

// TestPlanCacheCounters: one cold build, every subsequent Plan a hit.
func TestPlanCacheCounters(t *testing.T) {
	e, qs := env(t)
	s := gswarm.New()
	q := qs.Get(0, 0)
	fill(e, q, 0, 2)
	s.Plan(e, q, 0)
	s.Plan(e, q, 0)
	s.Plan(e, q, 0)
	if st := s.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits", st)
	}
}
