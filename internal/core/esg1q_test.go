package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/units"
)

func testOracle() *profile.Oracle {
	return profile.NewOracle(profile.Table3Registry(), profile.DefaultSpace(), pricing.Default())
}

func smallOracle() *profile.Oracle {
	return profile.NewOracle(profile.Table3Registry(), profile.SmallSpace(), pricing.Default())
}

func tablesFor(o *profile.Oracle, names ...string) []*profile.FunctionTable {
	out := make([]*profile.FunctionTable, len(names))
	for i, n := range names {
		out[i] = o.MustTable(n)
	}
	return out
}

func TestSearchFindsFeasiblePaths(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Segmentation, profile.Classification)
	// Moderate budget: 1.0 × L of the image classification app.
	res := Search(SearchInput{
		Tables: tables,
		GSLO:   526 * time.Millisecond,
		K:      5,
	})
	if !res.Feasible {
		t.Fatalf("search infeasible at 1.0·L")
	}
	if len(res.Paths) == 0 || len(res.Paths) > 5 {
		t.Fatalf("got %d paths", len(res.Paths))
	}
	for i, p := range res.Paths {
		if len(p.Ests) != 3 {
			t.Errorf("path %d has %d stages", i, len(p.Ests))
		}
		if p.Time > 526*time.Millisecond {
			t.Errorf("path %d time %v exceeds GSLO", i, p.Time)
		}
		if i > 0 && p.Cost < res.Paths[i-1].Cost {
			t.Errorf("paths not cost-ascending at %d", i)
		}
	}
}

func TestSearchMatchesBruteForceTopCost(t *testing.T) {
	// The A*+dual-blade search must return the same optimal cost (and same
	// top-K cost multiset) as exhaustive enumeration. SmallSpace keeps the
	// brute force tractable: 27³ ≈ 20k paths.
	o := smallOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Deblur, profile.Classification)
	for _, gslo := range []time.Duration{
		400 * time.Millisecond, // tight
		552 * time.Millisecond, // ≈ L
		700 * time.Millisecond, // generous
		2 * time.Second,        // everything feasible
	} {
		for _, k := range []int{1, 3, 5} {
			in := SearchInput{Tables: tables, GSLO: gslo, K: k, Hop: 2 * time.Millisecond}
			got := Search(in)
			want := BruteForceSearch(in)
			if got.Feasible != want.Feasible {
				t.Errorf("GSLO=%v K=%d: feasible %v vs brute %v", gslo, k, got.Feasible, want.Feasible)
				continue
			}
			if !want.Feasible {
				continue
			}
			if len(got.Paths) != len(want.Paths) {
				t.Errorf("GSLO=%v K=%d: %d paths vs brute %d", gslo, k, len(got.Paths), len(want.Paths))
				continue
			}
			for i := range got.Paths {
				if got.Paths[i].Cost != want.Paths[i].Cost {
					t.Errorf("GSLO=%v K=%d: path %d cost %v vs brute %v",
						gslo, k, i, got.Paths[i].Cost, want.Paths[i].Cost)
				}
			}
		}
	}
}

func TestSearchMatchesBruteForceProperty(t *testing.T) {
	// Byte-exact oracle equivalence: the dominance-pruned A* search must
	// return exactly the exhaustive enumeration's paths — configurations,
	// times and costs — over two- and three-stage groups, batch bounds,
	// ablation filters, hops and targets down to infeasible ones, where
	// both must agree on the drain fallback over the unpruned lists.
	o := smallOracle()
	names := []string{profile.SuperResolution, profile.Segmentation, profile.Deblur,
		profile.Classification, profile.BackgroundRemoval, profile.DepthRecognition}
	filters := []func(profile.Config) bool{
		nil,
		func(c profile.Config) bool { return c.Batch == 1 }, // no batching
		func(c profile.Config) bool { return c.GPU == 4 },   // no GPU sharing: SmallSpace's whole GPU
	}
	f := func(f1, f2, f3, gsloMS uint16, kRaw, maxBatchRaw, filterRaw, hopRaw uint8) bool {
		fns := []string{names[int(f1)%len(names)], names[int(f2)%len(names)]}
		if f3%2 == 1 {
			fns = append(fns, names[int(f3/2)%len(names)])
		}
		in := SearchInput{
			Tables:        tablesFor(o, fns...),
			GSLO:          time.Duration(int(gsloMS)%2400) * time.Millisecond,
			K:             1 + int(kRaw)%6,
			MaxFirstBatch: int(maxBatchRaw) % 5, // 0 = unbounded
			Filter:        filters[int(filterRaw)%len(filters)],
			Hop:           time.Duration(hopRaw%4) * time.Millisecond,
		}
		got := Search(in)
		want := BruteForceSearch(in)
		if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Logf("fns=%v gslo=%v k=%d maxBatch=%d filter=%d hop=%v: feasible %v vs oracle %v",
				fns, in.GSLO, in.K, in.MaxFirstBatch, int(filterRaw)%len(filters), in.Hop,
				got.Feasible, want.Feasible)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

func TestSearchPrunesVersusBruteForce(t *testing.T) {
	// Dual-blade pruning must expand far fewer nodes than enumeration on
	// the full 256-config space (§5.3's whole point).
	o := testOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Segmentation, profile.Classification)
	in := SearchInput{Tables: tables, GSLO: 500 * time.Millisecond, K: 5}
	got := Search(in)
	if !got.Feasible {
		t.Fatalf("expected feasible search")
	}
	// Brute force enumerates 256³ ≈ 16.7M paths; the blades, the
	// K-dominance prune of the config lists and the time-aware
	// cost-to-go keep this search to 49 expansions.
	if got.Expanded > 500 {
		t.Errorf("search expanded %d nodes; pruning ineffective", got.Expanded)
	}

	// The deterministic work counts of §5.3's two inputs (sec53's "ESG
	// expansions" column): a change here is a change to the search itself.
	for g, want := range map[int]int{3: 18, 4: 3009} {
		if res := Search(sec53Input(o, g)); res.Expanded != want {
			t.Errorf("group %d: expanded %d nodes, want %d", g, res.Expanded, want)
		}
	}
}

// FuzzSearch checks Search against the exhaustive oracle on SmallSpace:
// 1–4 stages drawn from Table 3, a target of up to 6.5 s in 100 µs steps,
// K of 1–8, a first-stage batch bound, one of five filters and a hop of
// 0–3 ms. Paths and Feasible must match exactly.
func FuzzSearch(f *testing.F) {
	// pick lists the stages' Table-3 indexes in base 6, least significant
	// first (0 super-resolution, 1 segmentation, 2 deblur,
	// 3 classification, 4 background removal, 5 depth recognition).
	f.Add(uint8(2), uint32(0+2*6+3*36), uint16(5520), uint8(4), uint8(0), uint8(0), uint8(2))       // 3 stages near L
	f.Add(uint8(3), uint32(0+1*6+2*36+3*216), uint16(8450), uint8(5), uint8(3), uint8(0), uint8(2)) // 4 stages
	f.Add(uint8(2), uint32(1+2*6+0*36), uint16(10), uint8(4), uint8(4), uint8(1), uint8(0))         // infeasible 1 ms target
	f.Add(uint8(0), uint32(4), uint16(9000), uint8(7), uint8(0), uint8(0), uint8(1))                // m = 1
	f.Add(uint8(1), uint32(5+2*6), uint16(30000), uint8(2), uint8(2), uint8(3), uint8(1))           // batch 4 only, bound 2: stage 0 over-constrained
	f.Add(uint8(2), uint32(3+3*6+3*36), uint16(30000), uint8(4), uint8(1), uint8(4), uint8(3))      // the filter admits nothing
	// Super-resolution twice, whole GPUs only, at its two fastest times
	// summed: three feasible paths, two of them tied on cost and time,
	// under K = 8, so the kept set never fills.
	f.Add(uint8(1), uint32(0), uint16(1306), uint8(7), uint8(0), uint8(2), uint8(0))
	o := smallOracle()
	names := profile.Table3Registry().Names()
	filters := []func(profile.Config) bool{
		nil,
		func(c profile.Config) bool { return c.Batch == 1 }, // no batching
		func(c profile.Config) bool { return c.GPU == 4 },   // no GPU sharing: SmallSpace's whole GPU
		func(c profile.Config) bool { return c.Batch == 4 }, // empty under a first-stage bound below 4
		func(profile.Config) bool { return false },          // admits nothing
	}
	f.Fuzz(func(t *testing.T, stages uint8, pick uint32, gslo uint16, k, maxBatch, filter, hop uint8) {
		fns := make([]string, 1+int(stages)%4)
		for i := range fns {
			fns[i] = names[pick%uint32(len(names))]
			pick /= uint32(len(names))
		}
		in := SearchInput{
			Tables:        tablesFor(o, fns...),
			GSLO:          time.Duration(gslo) * 100 * time.Microsecond,
			K:             1 + int(k)%8,
			MaxFirstBatch: int(maxBatch) % 6, // 0 = unbounded
			Filter:        filters[int(filter)%len(filters)],
			Hop:           time.Duration(hop%4) * time.Millisecond,
		}
		got, want := Search(in), BruteForceSearch(in)
		if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("fns %v, gslo %v, K %d, maxBatch %d, filter %d, hop %v: Search %+v, oracle %+v",
				fns, in.GSLO, in.K, in.MaxFirstBatch, int(filter)%len(filters), in.Hop, got, want)
		}
	})
}

// cheapestCompletion returns, by enumeration, the lowest cost of running
// the stages of lists in order, each after a hop, within budget; ok is
// false when nothing fits.
func cheapestCompletion(lists [][]profile.Estimate, hop, budget time.Duration) (best units.Money, ok bool) {
	if len(lists) == 0 {
		return 0, true
	}
	for i := range lists[0] {
		e := &lists[0][i]
		rest := budget - hop - e.Time
		if rest < 0 {
			break // latency-ascending
		}
		if c, fits := cheapestCompletion(lists[1:], hop, rest); fits && (!ok || e.JobCost+c < best) {
			best, ok = e.JobCost+c, true
		}
	}
	return best, ok
}

// costToGoSpec is costToGo's definition, evaluated over lists (each stage
// after a hop) by scanning: the cheapest config of every stage but the
// last, plus the cheapest last-stage config that fits budget once the hops
// and the other stages' fastest configs are paid.
func costToGoSpec(lists [][]profile.Estimate, hop, budget time.Duration) units.Money {
	var bound units.Money
	budget -= time.Duration(len(lists)) * hop
	for _, list := range lists[:len(lists)-1] {
		fastest, cheapest := list[0].Time, list[0].JobCost
		for _, e := range list {
			fastest, cheapest = min(fastest, e.Time), min(cheapest, e.JobCost)
		}
		budget -= fastest
		bound += cheapest
	}
	var last units.Money = -1
	for _, e := range lists[len(lists)-1] {
		if e.Time <= budget && (last < 0 || e.JobCost < last) {
			last = e.JobCost
		}
	}
	return bound + last
}

// TestCostToGoBound checks A*'s cost-to-go against enumeration on random
// SmallSpace suffixes: for a path that has used time t of the target, the
// bound is its definition evaluated over the unpruned admitted lists,
// never exceeds the cheapest completion of the stages left, equals it when
// one stage remains, and never falls below the time-agnostic minCostAfter
// it replaced. The times a path has used ascend, as runLoop passes them.
func TestCostToGoBound(t *testing.T) {
	o := smallOracle()
	names := profile.Table3Registry().Names()
	filters := []func(profile.Config) bool{
		nil,
		func(c profile.Config) bool { return c.Batch == 1 },
		func(c profile.Config) bool { return c.GPU == 4 },
		func(profile.Config) bool { return false }, // one fallback config per stage
	}
	rng := rand.New(rand.NewSource(4))
	s := NewSearcher()
	exact := 0
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(3) // a first stage, then one to three left
		fns := make([]string, m)
		for i := range fns {
			fns[i] = names[rng.Intn(len(names))]
		}
		in := SearchInput{
			Tables: tablesFor(o, fns...),
			K:      1 + rng.Intn(5),
			Hop:    time.Duration(rng.Intn(3)) * time.Millisecond,
			Filter: filters[rng.Intn(len(filters))],
		}
		s.prepareLists(in, m, in.K)
		s.prepareBounds(in.Hop, m)
		i := 1 + rng.Intn(m-1)
		slack := time.Duration(rng.Int63n(int64(3 * time.Second)))
		gslo := time.Duration(rng.Int63n(int64(time.Second))) + s.minTimeAfter[i] + slack
		used := []time.Duration{gslo - s.minTimeAfter[i]} // only the fastest completion fits
		for len(used) < 6 {
			used = append(used, gslo-s.minTimeAfter[i]-time.Duration(rng.Int63n(int64(slack)+1)))
		}
		slices.Sort(used)
		h := s.costToGo(i, gslo)
		for _, u := range used {
			got := h.at(u)
			spec := costToGoSpec(s.admitted[i:], in.Hop, gslo-u)
			want, ok := cheapestCompletion(s.admitted[i:], in.Hop, gslo-u)
			if got != spec || !ok || got > want || got < s.minCostAfter[i] || (i == m-1 && got != want) {
				t.Fatalf("trial %d: %v from stage %d, %v left: bound %v, definition %v, cheapest completion %v (ok %v), time-agnostic %v",
					trial, fns, i, gslo-u, got, spec, want, ok, s.minCostAfter[i])
			}
			if i == m-1 {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatal("no trial had one stage left")
	}
}

// sec53Input is §5.3's group-g search (g = 3 or 4): the first g functions
// of its sequence at a target of their summed base execution times.
func sec53Input(o *profile.Oracle, g int) SearchInput {
	seq := []string{profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval,
		profile.Segmentation}[:g]
	var gslo time.Duration
	for _, fn := range seq {
		gslo += profile.Table3Registry().MustLookup(fn).BaseExec
	}
	return SearchInput{Tables: tablesFor(o, seq...), GSLO: gslo, K: DefaultK}
}

func TestSearchRespectsFirstBatchBound(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.Deblur, profile.SuperResolution)
	res := Search(SearchInput{Tables: tables, GSLO: 2 * time.Second, K: 5, MaxFirstBatch: 2})
	for _, p := range res.Paths {
		if p.Ests[0].Config.Batch > 2 {
			t.Errorf("first-stage batch %d exceeds queue bound", p.Ests[0].Config.Batch)
		}
	}
}

func TestSearchInfeasibleFallsBackToDrain(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.BackgroundRemoval, profile.DepthRecognition)
	res := Search(SearchInput{Tables: tables, GSLO: time.Millisecond, K: 5, MaxFirstBatch: 16})
	if res.Feasible {
		t.Fatalf("1ms budget reported feasible")
	}
	if len(res.Paths) == 0 {
		t.Fatalf("no fallback paths")
	}
	// Even the fastest path misses 1 ms, so the time blade cuts the
	// virtual root itself and nothing is expanded (§5.3 prints Expanded).
	if res.Expanded != 0 {
		t.Errorf("Expanded = %d on a target below the fastest path, want 0", res.Expanded)
	}
	// Drain fallbacks offer decreasing resource footprints so a loaded
	// cluster can still place one.
	last := res.Paths[0].Ests[0].Config
	foundSmall := false
	for _, p := range res.Paths {
		cfg := p.Ests[0].Config
		if cfg.GPU <= 1 && cfg.CPU <= 1 {
			foundSmall = true
		}
		last = cfg
	}
	_ = last
	if !foundSmall {
		t.Errorf("no minimal-footprint drain fallback among %d paths", len(res.Paths))
	}
}

func TestSearchFilter(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Classification)
	onlyBatch1 := func(c profile.Config) bool { return c.Batch == 1 }
	res := Search(SearchInput{Tables: tables, GSLO: time.Second, K: 5, Filter: onlyBatch1})
	for _, p := range res.Paths {
		for _, e := range p.Ests {
			if e.Config.Batch != 1 {
				t.Errorf("filter leaked config %v", e.Config)
			}
		}
	}
}

func TestSearchEmptySequence(t *testing.T) {
	res := Search(SearchInput{})
	if !res.Feasible || len(res.Paths) != 0 {
		t.Errorf("empty search = %+v", res)
	}
}

func TestPathConfigs(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Classification)
	res := Search(SearchInput{Tables: tables, GSLO: time.Second, K: 1})
	cfgs := res.Paths[0].Configs()
	if len(cfgs) != 2 {
		t.Fatalf("Configs() returned %d", len(cfgs))
	}
	for i, c := range cfgs {
		if c != res.Paths[0].Ests[i].Config {
			t.Errorf("config %d mismatch", i)
		}
	}
}

// TestShardedFrontierMatchesLevelwise checks a search whose arena grows
// past two thousand nodes against the independently written level-wise
// engine. Under pathLess's total order the kept top-K is a pure function of
// the candidate set, so both agree byte for byte. The name dates from the
// deleted per-stage sharded frontier, which this input once switched on.
func TestShardedFrontierMatchesLevelwise(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Segmentation, profile.Classification)
	gslo := time.Duration(0)
	for _, tb := range tables {
		gslo += tb.Fn.BaseExec
	}
	in := SearchInput{Tables: tables, GSLO: 3 * gslo / 2, K: 5, Hop: 2 * time.Millisecond}

	s := NewSearcher()
	got := s.Search(in)
	if len(s.arena) <= 2048 {
		t.Fatalf("arena %d: pick a larger input", len(s.arena))
	}
	want := SearchLevelwise(in)
	if got.Feasible != want.Feasible {
		t.Fatalf("feasible %v vs levelwise %v", got.Feasible, want.Feasible)
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Errorf("search disagrees with the level-wise engine")
	}
}

func TestPathHeapOrdering(t *testing.T) {
	ph := newPathHeap(2)
	ph.add(Path{Cost: 30})
	ph.add(Path{Cost: 10})
	ph.add(Path{Cost: 20})
	ph.add(Path{Cost: 40})
	got := ph.sorted()
	if len(got) != 2 || got[0].Cost != 10 || got[1].Cost != 20 {
		t.Errorf("pathHeap kept %v", got)
	}
}
