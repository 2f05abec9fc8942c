// Benchmarks for the concurrent experiment runner and the memoized ESG_1Q
// plan cache:
//
//	go test -bench='Runner|Cache' -benchtime=1x
//
// compares one full regeneration of the Fig. 6 comparison grid (15
// scenario cells) sequentially vs over a 4-worker pool, and one ESG_1Q
// search against a cache hit. Scheduling overhead is charged as
// OverheadNone so both runner variants do byte-identical work.
package esg_test

import (
	"testing"
	"time"

	esg "github.com/esg-sched/esg"
	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/sched"
)

// benchGrid regenerates the Fig. 6 grid with a fresh runner (no shared
// result cache — every iteration re-runs all 15 cells).
func benchGrid(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(42, 0.05)
		r.Overhead = sched.OverheadNone
		r.Parallel = parallel
		if _, err := experiments.Fig6(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSequential regenerates the comparison grid one cell at a
// time (the pre-refactor behavior).
func BenchmarkRunnerSequential(b *testing.B) { benchGrid(b, 1) }

// BenchmarkRunnerParallel4 regenerates the same grid over a 4-worker
// pool; output is byte-identical to the sequential run at the same seed.
func BenchmarkRunnerParallel4(b *testing.B) { benchGrid(b, 4) }

// BenchmarkPlanCacheCold measures the miss path of the memoized search: a
// fresh cache per iteration, so every lookup runs the full A* search and
// stores the result.
func BenchmarkPlanCacheCold(b *testing.B) {
	in := searchInput(3)
	sig := "bench"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := esg.NewPlanCache(8, 5*time.Millisecond)
		if res := c.Search(in, sig); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkPlanCacheWarm measures the hit path: the search is served from
// the LRU without expanding the configuration graph.
func BenchmarkPlanCacheWarm(b *testing.B) {
	in := searchInput(3)
	sig := "bench"
	c := esg.NewPlanCache(8, 5*time.Millisecond)
	c.Search(in, sig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := c.Search(in, sig); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkPlanCacheIntervalHit measures an adjacent-bucket hit: the
// target sits in a cached entry's feasibility interval, one bucket below
// where the entry was computed, so the lookup walks the interval index
// instead of re-searching.
func BenchmarkPlanCacheIntervalHit(b *testing.B) {
	in := searchInput(3)
	sig := "bench"
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := esg.NewPlanCache(8, 5*time.Millisecond)
		first := c.Search(in, sig)
		if !first.Feasible {
			b.Fatal("infeasible seed search")
		}
		var tmax time.Duration
		for _, p := range first.Paths {
			if p.Time > tmax {
				tmax = p.Time
			}
		}
		tight := in
		tight.GSLO = c.QuantizeGSLO(tmax) + 5*time.Millisecond // first bucket >= tmax
		b.StartTimer()
		if res := c.Search(tight, sig); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
