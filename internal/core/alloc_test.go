package core

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
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
