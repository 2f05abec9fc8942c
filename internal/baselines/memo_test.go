package baselines_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func TestMemoHitColdCounters(t *testing.T) {
	m := baselines.NewMemo()
	k := baselines.Key{App: 1, Stage: 2, MaxBatch: 4}
	if _, ok := m.Lookup(k); ok {
		t.Fatal("lookup hit on an empty memo")
	}
	stored := m.Store(k, []profile.Config{{Batch: 4, CPU: 2, GPU: 1}})
	if got, ok := m.Lookup(k); !ok || len(got) != 1 || got[0] != stored[0] {
		t.Fatalf("lookup after store = %v, %v", got, ok)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if st.IntervalHits != 0 || st.Evictions != 0 {
		t.Errorf("incremental-tier counters must stay zero: %+v", st)
	}
}

func TestMemoStoresEmptyRankings(t *testing.T) {
	// "No admissible configuration" is a valid, memoizable answer: the
	// memo must hit on it instead of re-deriving emptiness every quantum.
	m := baselines.NewMemo()
	k := baselines.Key{App: 0, Stage: 0, MaxBatch: 0}
	m.Store(k, nil)
	if got, ok := m.Lookup(k); !ok || got != nil {
		t.Fatalf("empty ranking not memoized: %v, %v", got, ok)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMemoDisable(t *testing.T) {
	m := baselines.NewMemo()
	m.Disable()
	k := baselines.Key{App: 0, Stage: 1, MaxBatch: 2}
	cands := []profile.Config{{Batch: 1, CPU: 1, GPU: 1}}
	if got := m.Store(k, cands); &got[0] != &cands[0] {
		t.Error("disabled Store must pass the slice through")
	}
	if _, ok := m.Lookup(k); ok {
		t.Error("disabled memo served a hit")
	}
	if st := m.Stats(); st != (sched.PlanCacheStats{}) {
		t.Errorf("disabled memo counted lookups: %+v", st)
	}
	if m.Len() != 0 {
		t.Errorf("disabled memo retained entries: %d", m.Len())
	}
}

func TestMemoFrozenAgainstAppend(t *testing.T) {
	m := baselines.NewMemo()
	k := baselines.Key{App: 3, Stage: 0, MaxBatch: 8}
	stored := m.Store(k, []profile.Config{{Batch: 8, CPU: 4, GPU: 2}, {Batch: 4, CPU: 2, GPU: 1}})
	// An append through the returned slice must copy, never write into
	// the shared storage.
	_ = append(stored, profile.Config{Batch: 1, CPU: 1, GPU: 1})
	again, _ := m.Lookup(k)
	if len(again) != 2 {
		t.Fatalf("append grew the memoized ranking to %d entries", len(again))
	}
}

func TestMemoIntegrityDetectsMutation(t *testing.T) {
	m := baselines.NewMemo()
	m.CheckMutations()
	k := baselines.Key{App: 0, Stage: 0, MaxBatch: 2}
	stored := m.Store(k, []profile.Config{{Batch: 2, CPU: 1, GPU: 1}})
	if err := m.Integrity(); err != nil {
		t.Fatalf("clean memo failed integrity: %v", err)
	}
	stored[0].CPU = 7 // the bug CheckMutations exists to catch
	if err := m.Integrity(); err == nil {
		t.Fatal("in-place mutation of a memoized ranking went undetected")
	}
}

// drainOne pops one job off the queue, re-creating the controller's
// re-plan pressure: the queue length (and so possibly the quantized
// bound) changes between Plan calls.
func drainOne(q *queue.AFW) {
	if !q.Empty() {
		q.Take(1)
	}
}

// TestMemoizedPlanEquivalence drives the two memoizing baselines and their
// memo-disabled twins over randomized queue fills and drains; every Plan
// call must return byte-identical candidates. This is the unit-level half
// of the equivalence story (the experiments package pins full emulation
// runs under -replan pressure).
func TestMemoizedPlanEquivalence(t *testing.T) {
	makers := map[string]func() (sched.Scheduler, *baselines.Memo){
		"INFless": func() (sched.Scheduler, *baselines.Memo) {
			s := infless.New()
			return s, s.PlanMemo()
		},
		"FaST-GShare": func() (sched.Scheduler, *baselines.Memo) {
			s := fastgshare.New()
			return s, s.PlanMemo()
		},
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			e, qs := env(t, workflow.Moderate)
			memoized, memo := mk()
			memo.CheckMutations()
			fresh, freshMemo := mk()
			freshMemo.Disable()

			src := rng.New(7)
			now := time.Duration(0)
			for round := 0; round < 400; round++ {
				app := src.IntN(len(e.Apps))
				stage := src.IntN(e.Apps[app].Len())
				q := qs.Get(app, stage)
				switch src.IntN(3) {
				case 0:
					fill(q, e.Apps[app], app, 1+src.IntN(24), e.SLOs[app])
				case 1:
					drainOne(q)
				}
				if q.Empty() {
					fill(q, e.Apps[app], app, 1, e.SLOs[app])
				}
				now += time.Duration(src.IntN(int(3 * time.Millisecond)))

				pm := memoized.Plan(e, q, now)
				pf := fresh.Plan(e, q, now)
				if fmt.Sprint(pm.Candidates) != fmt.Sprint(pf.Candidates) {
					t.Fatalf("round %d (app %d stage %d len %d): memoized %v != fresh %v",
						round, app, stage, q.Len(), pm.Candidates, pf.Candidates)
				}
			}
			if err := memo.Integrity(); err != nil {
				t.Error(err)
			}
			st := memoized.(sched.PlanCaching).PlanCacheStats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Errorf("equivalence run exercised no memo reuse: %+v", st)
			}
			if off := fresh.(sched.PlanCaching).PlanCacheStats(); off.Lookups() != 0 {
				t.Errorf("disabled twin reported lookups: %+v", off)
			}
		})
	}
}

func TestBaselinesImplementPlanCaching(t *testing.T) {
	var _ sched.PlanCaching = infless.New()
	var _ sched.PlanCaching = fastgshare.New()
	var _ baselines.MemoUser = infless.New()
	var _ baselines.MemoUser = fastgshare.New()
}

func TestConfigLessTotalOrder(t *testing.T) {
	cfgs := profile.DefaultSpace().Configs()
	for i, a := range cfgs {
		for j, b := range cfgs {
			la, lb := baselines.ConfigLess(a, b), baselines.ConfigLess(b, a)
			if i == j && (la || lb) {
				t.Fatalf("ConfigLess(%v, %v) not irreflexive", a, b)
			}
			if i != j && la == lb {
				t.Fatalf("ConfigLess(%v, %v) not total: both orders %v", a, b, la)
			}
		}
	}
}
