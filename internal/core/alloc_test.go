package core

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

// warmSearchInput is the §5.3-style group-3 search the allocation pin runs:
// 256-config tables at a moderate target — the scheduler's hot path.
func warmSearchInput() SearchInput {
	o := testOracle()
	tables := tablesFor(o, profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval)
	var gslo time.Duration
	for _, fn := range []string{profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval} {
		gslo += profile.Table3Registry().MustLookup(fn).BaseExec
	}
	return SearchInput{Tables: tables, GSLO: gslo, K: DefaultK}
}

// TestSearchAllocsPinned is the allocation-regression gate for the search
// hot path: a warm Searcher must run a full cold (uncached) group-3 search
// within a fixed allocation budget. The seed implementation allocated
// ~26000 times per search (one boxed node per A* expansion plus per-stage
// list copies); the arena/scratch implementation needs only the escaping
// result (the K paths and their estimate slices). The bound leaves
// headroom but keeps any reintroduced per-expansion allocation an
// immediate failure.
func TestSearchAllocsPinned(t *testing.T) {
	in := warmSearchInput()
	sr := NewSearcher()
	if res := sr.Search(in); !res.Feasible {
		t.Fatalf("warm-up search infeasible; pick a looser GSLO for the pin")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if res := sr.Search(in); len(res.Paths) == 0 {
			t.Fatal("no paths")
		}
	})
	t.Logf("warm Searcher.Search: %.0f allocs/op", allocs)
	if allocs > 100 {
		t.Errorf("warm Searcher.Search allocates %.0f times per op, want <= 100 "+
			"(the steady path must stay arena-backed)", allocs)
	}
}

// TestPooledSearchAllocsBounded extends the pin to the package-level Search
// (the pool path used by the scheduler); the pool may miss under GC, so the
// bound is looser but still ~50× under the seed's per-expansion boxing.
func TestPooledSearchAllocsBounded(t *testing.T) {
	in := warmSearchInput()
	Search(in) // populate the pool
	allocs := testing.AllocsPerRun(5, func() {
		if res := Search(in); len(res.Paths) == 0 {
			t.Fatal("no paths")
		}
	})
	t.Logf("pooled Search: %.0f allocs/op", allocs)
	if allocs > 500 {
		t.Errorf("pooled Search allocates %.0f times per op, want <= 500", allocs)
	}
}

// TestBruteForceAllocsBounded pins BruteForceSearch to allocating only the
// paths that enter its top K. A group-3 input over the 27-config space has
// 19,683 paths; at an unbounded GSLO every one is feasible, at the
// moderate one a share is, and the allocation bound is the same for both.
// Before the pin each feasible path allocated its estimates.
func TestBruteForceAllocsBounded(t *testing.T) {
	fns := []string{profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval}
	tables := tablesFor(smallOracle(), fns...)
	var moderate time.Duration
	for _, fn := range fns {
		moderate += profile.Table3Registry().MustLookup(fn).BaseExec
	}
	const bound = 128
	for _, gslo := range []time.Duration{moderate, time.Hour} {
		in := SearchInput{Tables: tables, GSLO: gslo, K: DefaultK}
		if res := BruteForceSearch(in); !res.Feasible || res.Expanded != 27*27*27 {
			t.Fatalf("gslo %v: feasible %v, expanded %d", gslo, res.Feasible, res.Expanded)
		}
		allocs := testing.AllocsPerRun(3, func() { BruteForceSearch(in) })
		if allocs > bound {
			t.Errorf("gslo %v: BruteForceSearch allocates %.0f times per call, want <= %d", gslo, allocs, bound)
		}
	}
}

// warmPlan returns a cached ESG and a queue it has planned: a Plan at now
// is an exact cache hit, and one at later an interval hit (a tighter
// target bucket that the feasibility interval of the first search covers).
func warmPlan(tb testing.TB) (e *ESG, env *sched.Env, q *queue.AFW, now, later time.Duration) {
	tb.Helper()
	env, qs := envFor(tb, workflow.EvaluationApps(), workflow.Relaxed)
	e = New()
	e.EnablePlanCache(0, 0)
	now = 10 * time.Second
	q = fillQueue(env, qs, 0, 0, 8, now, env.SLOs[0]/10)
	e.Plan(env, q, now)
	for dt := time.Millisecond; dt < env.SLOs[0]/2; dt += time.Millisecond {
		before := e.PlanCacheStats()
		e.Plan(env, q, now+dt)
		if after := e.PlanCacheStats(); after.IntervalHits > before.IntervalHits {
			return e, env, q, now, now + dt
		}
	}
	tb.Fatalf("no later target answered from a feasibility interval")
	return
}

// TestESGPlanHitAllocsZero pins the re-planning hot path: a warm ESG
// answering from its plan cache — an exact hit or an interval hit —
// allocates nothing. The planning context, the arrival index and the
// shared candidate list leave Plan only per-call arithmetic and the
// lookup.
func TestESGPlanHitAllocsZero(t *testing.T) {
	e, env, q, now, later := warmPlan(t)
	for _, tc := range []struct {
		tier string
		at   time.Duration
		hits func(sched.PlanCacheStats) uint64
	}{
		{"exact", now, func(s sched.PlanCacheStats) uint64 { return s.Hits }},
		{"interval", later, func(s sched.PlanCacheStats) uint64 { return s.IntervalHits }},
	} {
		before := e.PlanCacheStats()
		allocs := testing.AllocsPerRun(100, func() {
			if e.Plan(env, q, tc.at).Empty() {
				t.Fatal("empty plan")
			}
		})
		after := e.PlanCacheStats()
		if got := tc.hits(after) - tc.hits(before); got != 101 || after.Misses != before.Misses {
			t.Fatalf("%s: %d of 101 calls hit the %s tier (%d cold)", tc.tier, got, tc.tier, after.Misses-before.Misses)
		}
		if allocs != 0 {
			t.Errorf("warm %s-hit Plan allocates %.0f times per call, want 0", tc.tier, allocs)
		}
	}
}

// BenchmarkESGPlanHit measures one warm exact-hit Plan: the per-call cost
// of re-planning when the plan cache answers.
func BenchmarkESGPlanHit(b *testing.B) {
	e, env, q, now, _ := warmPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Plan(env, q, now).Empty() {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkWarmSearcher measures the steady-state cold search on reused
// scratch (the number BENCH_2.json records).
func BenchmarkWarmSearcher(b *testing.B) {
	in := warmSearchInput()
	sr := NewSearcher()
	sr.Search(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sr.Search(in); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
