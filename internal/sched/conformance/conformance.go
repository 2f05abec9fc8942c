// Package conformance is the executable contract of the sched.Scheduler
// interface: one reusable property suite every scheduler — ESG, its
// ablations and all baselines — must pass. The properties are the
// invariants the rest of the system silently relies on (the controller's
// dispatch loop, the plan memos and the fault engine), extracted from the
// per-scheduler tests that grew around them:
//
//   - Plan admissibility: every candidate is a valid configuration whose
//     batch respects the queue length and the profiled space's per-
//     dimension maxima (pre-planned schedulers may clamp batches off the
//     space's option grid, so membership is not required — bounds are);
//   - Plan determinism: two fresh instances produce identical candidate
//     lists over identical queue coordinates, and repeated calls against
//     an unchanged queue stay stable (the byte-identity contract's
//     scheduler half);
//   - parallel-instance cleanliness: fresh instances planning at once,
//     each on its own environment as the -parallel worker pool runs one
//     scheduler per cell, produce exactly a sequential instance's
//     candidates (run under -race, this is also the data-race
//     certificate for state the instances share);
//   - memo equivalence: for baselines.MemoUser schedulers, disabling the
//     plan memo changes no candidate — memoization skips work, never
//     answers differently;
//   - placement safety: Place never selects a crashed invoker — not via
//     pins, homes, predecessors or free-capacity scans — and an
//     all-invokers-down fleet yields nil, not a panic.
//
// Scheduler packages (and the cross-scheduler matrix in this package's
// tests) call Run with a factory producing fresh instances; each property
// builds its own environment, so factories must not share mutable state
// between the instances they return.
package conformance

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

// Factory builds one fresh scheduler instance per call. Instances must not
// share mutable state (shared immutable configuration is fine).
type Factory func() (sched.Scheduler, error)

// queueLens are the queue lengths each property sweeps: a singleton, a
// mid-range batch and the space's largest batch option.
var queueLens = []int{1, 5, 16}

// Run executes the full conformance suite against the factory's scheduler.
func Run(t *testing.T, newScheduler Factory) {
	t.Helper()
	t.Run("PlanAdmissible", func(t *testing.T) { planAdmissible(t, newScheduler) })
	t.Run("PlanDeterministic", func(t *testing.T) { planDeterministic(t, newScheduler) })
	t.Run("ConcurrentPlanRaceClean", func(t *testing.T) { parallelInstancesRaceClean(t, newScheduler) })
	t.Run("MemoEquivalence", func(t *testing.T) { memoEquivalence(t, newScheduler) })
	t.Run("PlaceSkipsCrashed", func(t *testing.T) { placeSkipsCrashed(t, newScheduler) })
	t.Run("PlaceAllDown", func(t *testing.T) { placeAllDown(t, newScheduler) })
}

// newEnv builds the standard conformance environment: the Table 3 registry
// and evaluation applications over the default space and cluster, moderate
// SLOs, zero modeled overhead (so Overhead never enters plan comparisons).
func newEnv(t *testing.T) (*sched.Env, *queue.Set) {
	t.Helper()
	reg := profile.Table3Registry()
	apps := workflow.EvaluationApps()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, workflow.Moderate, reg)
	}
	env := &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
		Noise:    profile.DefaultNoise(),
		Overhead: sched.OverheadNone,
	}
	qs := queue.NewSet(apps)
	qs.Bind(env.Cluster)
	return env, qs
}

// fill pushes n jobs onto the (appIdx, stage) queue. Instances targeting a
// later stage have every predecessor stage completed on predInvoker first,
// so placement sees a coherent history (StageInvoker answers predInvoker).
// Instance IDs start at idBase so queues filled across stages stay unique.
func fill(env *sched.Env, q *queue.AFW, appIdx, stage, n, idBase int, predInvoker int) {
	app := env.Apps[appIdx]
	for i := 0; i < n; i++ {
		inst := queue.NewInstance(idBase+i, appIdx, app, 0, env.SLOs[appIdx])
		for s := 0; s < stage; s++ {
			inst.CompleteStage(s, predInvoker, 0)
		}
		q.Push(&queue.Job{Instance: inst, Stage: stage, EnqueuedAt: 0})
	}
}

// forEachQueue sweeps every (application, stage, queue length) coordinate:
// it fills the queue, invokes fn, then moves on (queues keep their jobs —
// schedulers only read them).
func forEachQueue(env *sched.Env, qs *queue.Set, fn func(q *queue.AFW, appIdx, stage, n int)) {
	id := 0
	for appIdx, app := range env.Apps {
		for stage := 0; stage < app.Len(); stage++ {
			for _, n := range queueLens {
				q := queue.NewAFW(id, appIdx, app, stage)
				q.FnID = qs.Get(appIdx, stage).FnID
				fill(env, q, appIdx, stage, n, id*1000, 0)
				fn(q, appIdx, stage, n)
				id++
			}
		}
	}
}

// planKey strips a Plan to its deterministic content: candidates and the
// miss/pre-planned markers. Overhead is excluded — it is charged time, not
// plan content, and is call-order-dependent for searching schedulers.
type planKey struct {
	Candidates []profile.Config
	ConfigMiss bool
	PrePlanned bool
}

func keyOf(p sched.Plan) planKey {
	return planKey{Candidates: p.Candidates, ConfigMiss: p.ConfigMiss, PrePlanned: p.PrePlanned}
}

func planAdmissible(t *testing.T, newScheduler Factory) {
	env, qs := newEnv(t)
	s, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	space := env.Oracle.Space
	maxBatch := space.Batches[len(space.Batches)-1]
	maxCPU := space.CPUs[len(space.CPUs)-1]
	maxGPU := space.GPUs[len(space.GPUs)-1]
	forEachQueue(env, qs, func(q *queue.AFW, appIdx, stage, n int) {
		plan := s.Plan(env, q, 0)
		if plan.Empty() {
			t.Fatalf("%s app %d stage %d len %d: empty plan", s.Name(), appIdx, stage, n)
		}
		for _, cfg := range plan.Candidates {
			if !cfg.Valid() {
				t.Fatalf("%s app %d stage %d len %d: invalid candidate %v", s.Name(), appIdx, stage, n, cfg)
			}
			if cfg.Batch > q.Len() {
				t.Fatalf("%s app %d stage %d: batch %d exceeds queue length %d", s.Name(), appIdx, stage, cfg.Batch, q.Len())
			}
			if cfg.Batch > maxBatch || cfg.CPU > maxCPU || cfg.GPU > maxGPU {
				t.Fatalf("%s app %d stage %d: candidate %v outside space maxima (b<=%d,c<=%d,g<=%d)",
					s.Name(), appIdx, stage, cfg, maxBatch, maxCPU, maxGPU)
			}
		}
		mc := s.MinConfig(env, q)
		if !mc.Valid() {
			t.Fatalf("%s: invalid MinConfig %v", s.Name(), mc)
		}
	})
}

func planDeterministic(t *testing.T, newScheduler Factory) {
	envA, qsA := newEnv(t)
	a, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	b, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	forEachQueue(envA, qsA, func(q *queue.AFW, appIdx, stage, n int) {
		pa := keyOf(a.Plan(envA, q, 0))
		pb := keyOf(b.Plan(envA, q, 0))
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s app %d stage %d len %d: two fresh instances disagree:\n%+v\n%+v",
				a.Name(), appIdx, stage, n, pa, pb)
		}
		again := keyOf(a.Plan(envA, q, 0))
		if !reflect.DeepEqual(pa, again) {
			t.Fatalf("%s app %d stage %d len %d: repeated Plan on an unchanged queue drifted:\n%+v\n%+v",
				a.Name(), appIdx, stage, n, pa, again)
		}
	})
}

// parallelInstancesRaceClean runs two fresh instances at once, each over
// its own environment, through two sweeps of every queue coordinate (the
// first fills memos and lazy builds, the second reads them), and compares
// every plan with a sequential reference instance's.
func parallelInstancesRaceClean(t *testing.T, newScheduler Factory) {
	sweep := func(s sched.Scheduler, env *sched.Env, qs *queue.Set) []planKey {
		var keys []planKey
		for round := 0; round < 2; round++ {
			forEachQueue(env, qs, func(q *queue.AFW, _, _, _ int) {
				keys = append(keys, keyOf(s.Plan(env, q, 0)))
			})
		}
		return keys
	}
	ref, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	env, qs := newEnv(t)
	want := sweep(ref, env, qs)

	got := make([][]planKey, 2)
	var wg sync.WaitGroup
	for w := range got {
		s, err := newScheduler()
		if err != nil {
			t.Fatalf("factory: %v", err)
		}
		env, qs := newEnv(t)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = sweep(s, env, qs)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("%s: instance %d planning beside another differs from the sequential reference",
				ref.Name(), w)
		}
	}
}

func memoEquivalence(t *testing.T, newScheduler Factory) {
	probe, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if _, ok := probe.(baselines.MemoUser); !ok {
		t.Skipf("%s has no baseline plan memo", probe.Name())
	}
	env, qs := newEnv(t)
	memoized, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	bare, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	bare.(baselines.MemoUser).PlanMemo().Disable()

	// Two passes: the memoized instance answers pass two from its memo,
	// and both passes must match the re-ranked reference exactly.
	for pass := 0; pass < 2; pass++ {
		forEachQueue(env, qs, func(q *queue.AFW, appIdx, stage, n int) {
			pm := keyOf(memoized.Plan(env, q, 0))
			pb := keyOf(bare.Plan(env, q, 0))
			if !reflect.DeepEqual(pm, pb) {
				t.Fatalf("%s pass %d app %d stage %d len %d: memoized and memo-disabled plans differ:\n%+v\n%+v",
					memoized.Name(), pass, appIdx, stage, n, pm, pb)
			}
		})
	}
	if st := memoized.(baselines.MemoUser).PlanMemo().Stats(); st.Hits == 0 {
		t.Fatalf("%s: plan memo recorded no hits over two passes", memoized.Name())
	}
}

func placeSkipsCrashed(t *testing.T, newScheduler Factory) {
	env, qs := newEnv(t)
	s, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	// Crash every even-ID invoker, and complete predecessor stages on a
	// crashed ID: homes, pins and predecessor affinity must all reroute.
	for _, inv := range env.Cluster.Invokers {
		if inv.ID%2 == 0 {
			inv.Crash(0)
		}
	}
	id := 0
	for appIdx, app := range env.Apps {
		for stage := 0; stage < app.Len(); stage++ {
			q := queue.NewAFW(id, appIdx, app, stage)
			q.FnID = qs.Get(appIdx, stage).FnID
			fill(env, q, appIdx, stage, 3, id*1000, 0) // invoker 0 is crashed
			id++
			plan := s.Plan(env, q, 0)
			if plan.Empty() {
				t.Fatalf("%s app %d stage %d: empty plan", s.Name(), appIdx, stage)
			}
			for _, cfg := range plan.Candidates {
				inv := s.Place(env, q, q.Peek(cfg.Batch), cfg, 0)
				if inv != nil && !inv.Up() {
					t.Fatalf("%s app %d stage %d: Place chose crashed invoker %d", s.Name(), appIdx, stage, inv.ID)
				}
			}
		}
	}
}

func placeAllDown(t *testing.T, newScheduler Factory) {
	env, qs := newEnv(t)
	s, err := newScheduler()
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	for _, inv := range env.Cluster.Invokers {
		inv.Crash(0)
	}
	forEachQueue(env, qs, func(q *queue.AFW, appIdx, stage, n int) {
		plan := s.Plan(env, q, 0)
		for _, cfg := range plan.Candidates {
			if inv := s.Place(env, q, q.Peek(cfg.Batch), cfg, 0); inv != nil {
				t.Fatalf("%s app %d stage %d: Place returned invoker %d with the whole fleet down",
					s.Name(), appIdx, stage, inv.ID)
			}
		}
	})
}
