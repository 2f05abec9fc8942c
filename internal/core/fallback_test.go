package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
)

// engines runs all three ESG_1Q implementations on one input: the
// optimized A* search, the basic level-wise sweep, and the exhaustive
// oracle. On over-constrained inputs they must agree, which pins the
// shared overConstrainedFallback.
func engines(in SearchInput) map[string]SearchResult {
	return map[string]SearchResult{
		"Search":           Search(in),
		"SearchLevelwise":  SearchLevelwise(in),
		"BruteForceSearch": BruteForceSearch(in),
	}
}

// TestOverConstrainedFallbackRespectsFilter is the regression test for the
// prepareLists fallback handing out a configuration its Filter forbids:
// with a batch bound that excludes every filter-admissible config, the
// fallback must relax the batch bound and keep the filter — an ablation
// run (e.g. no GPU sharing) must never execute a forbidden config.
func TestOverConstrainedFallbackRespectsFilter(t *testing.T) {
	o := smallOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Classification)
	onlyBatch4 := func(c profile.Config) bool { return c.Batch == 4 }
	// MaxFirstBatch 2 ∩ batch==4 is empty: stage 0 is over-constrained.
	in := SearchInput{Tables: tables, GSLO: 5 * time.Second, K: 3,
		MaxFirstBatch: 2, Filter: onlyBatch4}
	for name, res := range engines(in) {
		if len(res.Paths) == 0 {
			t.Fatalf("%s: no paths", name)
		}
		for pi, p := range res.Paths {
			for si, e := range p.Ests {
				if e.Config.Batch != 4 {
					t.Errorf("%s: path %d stage %d config %v violates the filter",
						name, pi, si, e.Config)
				}
			}
		}
	}
}

// TestOverConstrainedFilterExcludesEverything pins the panic-free
// degradation: when the filter admits no configuration at all, planning
// must still return paths (honoring the batch bound, which remains
// satisfiable) and all engines must agree.
func TestOverConstrainedFilterExcludesEverything(t *testing.T) {
	o := smallOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Deblur)
	impossible := func(profile.Config) bool { return false }
	in := SearchInput{Tables: tables, GSLO: 5 * time.Second, K: 3,
		MaxFirstBatch: 2, Filter: impossible}
	results := engines(in)
	want := results["BruteForceSearch"]
	for name, res := range results {
		if len(res.Paths) == 0 {
			t.Fatalf("%s: no paths despite degradation", name)
		}
		if res.Paths[0].Ests[0].Config.Batch > 2 {
			t.Errorf("%s: degraded fallback ignored the satisfiable batch bound: %v",
				name, res.Paths[0].Ests[0].Config)
		}
		if res.Feasible != want.Feasible || len(res.Paths) != len(want.Paths) {
			t.Errorf("%s: feasible=%v paths=%d, oracle feasible=%v paths=%d",
				name, res.Feasible, len(res.Paths), want.Feasible, len(want.Paths))
			continue
		}
		for i := range res.Paths {
			if res.Paths[i].Cost != want.Paths[i].Cost {
				t.Errorf("%s: path %d cost %v, oracle %v", name, i, res.Paths[i].Cost, want.Paths[i].Cost)
			}
		}
	}
}

// comparePaths asserts two results agree path for path (feasibility, cost,
// time and the exact configurations). Both engines share pathLess's content
// total order and the drainPaths fallback, so full equality is the
// contract, not just cost agreement.
func comparePaths(t *testing.T, desc string, got, want SearchResult) {
	t.Helper()
	if got.Feasible != want.Feasible || len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: feasible=%v/%d paths vs oracle %v/%d",
			desc, got.Feasible, len(got.Paths), want.Feasible, len(want.Paths))
	}
	for i := range got.Paths {
		g, w := got.Paths[i], want.Paths[i]
		if g.Cost != w.Cost || g.Time != w.Time {
			t.Fatalf("%s: path %d (cost %v, time %v) vs oracle (cost %v, time %v)",
				desc, i, g.Cost, g.Time, w.Cost, w.Time)
		}
		for si := range g.Ests {
			if g.Ests[si].Config != w.Ests[si].Config {
				t.Fatalf("%s: path %d stage %d config %v vs oracle %v",
					desc, i, si, g.Ests[si].Config, w.Ests[si].Config)
			}
		}
	}
}

// degenerateLadder searches in down a descending GSLO ladder on one reused
// Searcher and checks every rung against the exhaustive oracle. A tighter
// target after a looser one is what the plan cache's miss path runs: a cold
// Search on a pooled Searcher whose buffers still hold the previous search.
func degenerateLadder(t *testing.T, s *Searcher, desc string, in SearchInput, gslos []time.Duration) {
	t.Helper()
	for _, gslo := range gslos {
		in.GSLO = gslo
		comparePaths(t, fmt.Sprintf("%s gslo=%v", desc, gslo), s.Search(in), BruteForceSearch(in))
	}
}

// TestDegenerateShardRetainResume searches an input where a stage's
// constraints admit nothing, so its list is overConstrainedFallback's single
// config, down a descending GSLO ladder on one reused Searcher. The name
// dates from two deleted layers: the per-stage sharded frontier, where that
// stage's sub-frontier stayed empty, and the retained-search resume tier
// this ladder once went through. Each rung is now a cold Search over the
// single heap.
func TestDegenerateShardRetainResume(t *testing.T) {
	o := testOracle() // 256-config space
	onlyBatch4 := func(c profile.Config) bool { return c.Batch == 4 }
	tables := tablesFor(o, profile.SuperResolution, profile.Segmentation,
		profile.Classification, profile.Deblur)
	// MaxFirstBatch 2 ∩ batch==4 is empty: stage 0 degenerates to the
	// fallback's single config; stages 1–3 keep their batch-4 lists.
	base := SearchInput{Tables: tables, GSLO: 4 * time.Second, K: 5,
		MaxFirstBatch: 2, Filter: onlyBatch4}

	s := NewSearcher()
	comparePaths(t, "batch4 at 4s", s.Search(base), BruteForceSearch(base))
	degenerateLadder(t, s, "batch4", base, []time.Duration{
		3 * time.Second, 2 * time.Second, 1500 * time.Millisecond,
		time.Second, 700 * time.Millisecond, 300 * time.Millisecond,
	})
}

// TestDegenerateShardResumeRandomized sweeps randomized descending GSLO
// ladders over filters that leave stages empty (fallback lists), nearly
// empty, or untouched. Every rung of every ladder, searched on one reused
// Searcher, must match the oracle. As above, the name dates from the
// deleted sharded frontier and resume tier.
func TestDegenerateShardResumeRandomized(t *testing.T) {
	o := smallOracle()
	names := []string{profile.SuperResolution, profile.Segmentation, profile.Deblur,
		profile.Classification, profile.BackgroundRemoval, profile.DepthRecognition}
	filters := []struct {
		id string
		f  func(profile.Config) bool
	}{
		{"nil", nil},
		{"batch4", func(c profile.Config) bool { return c.Batch == 4 }},
		{"gpu4", func(c profile.Config) bool { return c.GPU == 4 }},
		{"none", func(profile.Config) bool { return false }},
	}
	rng := rand.New(rand.NewSource(2))
	s := NewSearcher()
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(2)
		fns := make([]string, m)
		for i := range fns {
			fns[i] = names[rng.Intn(len(names))]
		}
		fl := filters[rng.Intn(len(filters))]
		in := SearchInput{
			Tables:        tablesFor(o, fns...),
			GSLO:          time.Duration(500+rng.Intn(2500)) * time.Millisecond,
			MaxFirstBatch: rng.Intn(4),
			K:             1 + rng.Intn(5),
			Hop:           time.Duration(rng.Intn(3)) * time.Millisecond,
			Filter:        fl.f,
		}
		gslos := []time.Duration{in.GSLO}
		for rung := 0; rung < 4; rung++ {
			gslos = append(gslos, gslos[rung]*time.Duration(60+rng.Intn(35))/100)
		}
		degenerateLadder(t, s, fmt.Sprintf("trial %d fns=%v filter=%s maxBatch=%d k=%d",
			trial, fns, fl.id, in.MaxFirstBatch, in.K), in, gslos)
	}
}

// TestSearchMatchesBruteForceOverConstrained drives randomized inputs —
// including filters and batch bounds that leave stages empty or nearly so —
// through Search and the exhaustive oracle. Beyond cost agreement it checks
// the fallback contract: whenever a stage's filter admits any config at
// all, every returned config of that stage satisfies the filter.
func TestSearchMatchesBruteForceOverConstrained(t *testing.T) {
	o := smallOracle()
	names := []string{profile.SuperResolution, profile.Segmentation, profile.Deblur,
		profile.Classification, profile.BackgroundRemoval, profile.DepthRecognition}
	filters := []struct {
		id string
		f  func(profile.Config) bool
	}{
		{"nil", nil},
		{"batch4", func(c profile.Config) bool { return c.Batch == 4 }},
		{"gpu4", func(c profile.Config) bool { return c.GPU == 4 }},
		{"cpu2batch1", func(c profile.Config) bool { return c.CPU >= 2 && c.Batch == 1 }},
		{"none", func(profile.Config) bool { return false }},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(3)
		fns := make([]string, m)
		for i := range fns {
			fns[i] = names[rng.Intn(len(names))]
		}
		fl := filters[rng.Intn(len(filters))]
		in := SearchInput{
			Tables:        tablesFor(o, fns...),
			GSLO:          time.Duration(100+rng.Intn(2000)) * time.Millisecond,
			MaxFirstBatch: rng.Intn(4), // 0 = unbounded, 3 excludes batch 4
			K:             1 + rng.Intn(5),
			Hop:           time.Duration(rng.Intn(3)) * time.Millisecond,
			Filter:        fl.f,
		}
		desc := fmt.Sprintf("trial %d fns=%v filter=%s gslo=%v maxBatch=%d k=%d",
			trial, fns, fl.id, in.GSLO, in.MaxFirstBatch, in.K)
		got := Search(in)
		want := BruteForceSearch(in)
		if got.Feasible != want.Feasible || len(got.Paths) != len(want.Paths) {
			t.Fatalf("%s: feasible=%v/%d vs oracle %v/%d",
				desc, got.Feasible, len(got.Paths), want.Feasible, len(want.Paths))
		}
		if want.Feasible {
			for i := range got.Paths {
				if got.Paths[i].Cost != want.Paths[i].Cost {
					t.Fatalf("%s: path %d cost %v vs oracle %v", desc, i, got.Paths[i].Cost, want.Paths[i].Cost)
				}
			}
		}
		if fl.f == nil || fl.id == "none" {
			continue
		}
		admitsAny := false
		for _, cfg := range o.Space.Configs() {
			if fl.f(cfg) {
				admitsAny = true
				break
			}
		}
		if !admitsAny {
			continue
		}
		for pi, p := range got.Paths {
			for si, e := range p.Ests {
				if !fl.f(e.Config) {
					t.Fatalf("%s: path %d stage %d config %v violates a satisfiable filter",
						desc, pi, si, e.Config)
				}
			}
		}
	}
}
