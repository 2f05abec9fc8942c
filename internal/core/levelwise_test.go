package core

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/units"
)

// SearchLevelwise is the *basic* ESG_1Q algorithm exactly as Fig. 3(b)
// sketches it: a level-by-level sweep that extends every surviving partial
// path with every configuration of the next stage, pruning with the same
// two blades as Search. Nothing outside the tests runs it: it is a second,
// independently-written engine for the same problem that the A* variant
// (Search) is cross-checked against, beside exhaustive enumeration, and
// the subject of the engine-comparison benchmark (the paper's Appendix B
// refines exactly this basic form with the best-first priority list).
func SearchLevelwise(in SearchInput) SearchResult {
	m := len(in.Tables)
	if m == 0 {
		return SearchResult{Feasible: true}
	}
	k := in.K
	if k <= 0 {
		k = DefaultK
	}
	maxExp := in.MaxExpansions
	if maxExp <= 0 {
		maxExp = defaultMaxExpansions
	}

	lists := make([][]profile.Estimate, m)
	for j := 0; j < m; j++ {
		maxBatch := 0
		if j == 0 {
			maxBatch = in.MaxFirstBatch
		}
		lists[j] = filteredList(in.Tables[j], maxBatch, in.Filter)
		if len(lists[j]) == 0 {
			lists[j] = overConstrainedFallback(in.Tables[j].ByLatency, maxBatch, in.Filter)
		}
	}

	minTimeAfter := make([]time.Duration, m+1)
	minCostAfter := make([]units.Money, m+1)
	for j := m - 1; j >= 0; j-- {
		mt, mc := listBounds(lists[j])
		hop := time.Duration(0)
		if j > 0 {
			hop = in.Hop
		}
		minTimeAfter[j] = minTimeAfter[j+1] + mt + hop
		minCostAfter[j] = minCostAfter[j+1] + mc
	}

	res := SearchResult{}
	best := newPathHeap(k)
	paths := []*levelNode{{level: -1}} // Fig. 3(b)'s path_list, seeded empty

	for j := 0; j < m; j++ {
		hop := time.Duration(0)
		if j > 0 {
			hop = in.Hop
		}
		var next []*levelNode
		for _, p := range paths {
			res.Expanded++
			if res.Expanded > maxExp {
				break
			}
			for idx := range lists[j] {
				est := &lists[j][idx]
				t := p.time + hop + est.Time
				if t+minTimeAfter[j+1] > in.GSLO {
					break // blade 1: latency-ascending lists
				}
				c := p.cost + est.JobCost
				if best.full() && c+minCostAfter[j+1] > best.worst() {
					continue // blade 2 (sound variant; see Search)
				}
				child := &levelNode{parent: p, estIdx: idx, level: j, time: t, cost: c}
				if j == m-1 {
					ests := make([]profile.Estimate, m)
					for cur := child; cur != nil && cur.level >= 0; cur = cur.parent {
						ests[cur.level] = lists[cur.level][cur.estIdx]
					}
					best.add(Path{Ests: ests, Time: t, Cost: c})
					continue
				}
				next = append(next, child)
			}
		}
		if j == m-1 {
			break
		}
		// Process the next level cheapest-first so inexpensive paths
		// complete early and tighten blade 2 for the rest of the sweep.
		sort.Slice(next, func(a, b int) bool { return next[a].cost < next[b].cost })
		paths = next
	}

	res.Paths = best.sorted()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(lists, in.Hop)
	}
	return res
}

// levelNode is a partial path of the level-wise sweep.
type levelNode struct {
	parent *levelNode
	estIdx int
	level  int
	time   time.Duration
	cost   units.Money
}

func TestLevelwiseMatchesAStar(t *testing.T) {
	o := smallOracle()
	names := []string{profile.SuperResolution, profile.Segmentation, profile.Deblur,
		profile.Classification, profile.BackgroundRemoval, profile.DepthRecognition}
	f := func(f1, f2, f3, gsloMS uint16, kRaw uint8) bool {
		tables := tablesFor(o,
			names[int(f1)%len(names)],
			names[int(f2)%len(names)],
			names[int(f3)%len(names)])
		gslo := time.Duration(300+int(gsloMS)%2500) * time.Millisecond
		k := 1 + int(kRaw)%6
		in := SearchInput{Tables: tables, GSLO: gslo, K: k, Hop: time.Millisecond}
		a := Search(in)
		b := SearchLevelwise(in)
		if a.Feasible != b.Feasible || len(a.Paths) != len(b.Paths) {
			return false
		}
		for i := range a.Paths {
			if a.Paths[i].Cost != b.Paths[i].Cost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestLevelwiseMatchesBruteForce(t *testing.T) {
	o := smallOracle()
	tables := tablesFor(o, profile.SuperResolution, profile.Deblur, profile.Classification)
	for _, gslo := range []time.Duration{450 * time.Millisecond, 600 * time.Millisecond, 2 * time.Second} {
		in := SearchInput{Tables: tables, GSLO: gslo, K: 5}
		got := SearchLevelwise(in)
		want := BruteForceSearch(in)
		if got.Feasible != want.Feasible || len(got.Paths) != len(want.Paths) {
			t.Errorf("GSLO=%v: %d/%v paths vs brute %d/%v",
				gslo, len(got.Paths), got.Feasible, len(want.Paths), want.Feasible)
			continue
		}
		for i := range got.Paths {
			if got.Paths[i].Cost != want.Paths[i].Cost {
				t.Errorf("GSLO=%v: path %d cost %v vs %v", gslo, i, got.Paths[i].Cost, want.Paths[i].Cost)
			}
		}
	}
}

func TestLevelwiseInfeasibleFallback(t *testing.T) {
	o := testOracle()
	tables := tablesFor(o, profile.BackgroundRemoval)
	res := SearchLevelwise(SearchInput{Tables: tables, GSLO: time.Millisecond, K: 3})
	if res.Feasible || len(res.Paths) == 0 {
		t.Errorf("fallback missing: feasible=%v paths=%d", res.Feasible, len(res.Paths))
	}
}

func TestLevelwiseEmpty(t *testing.T) {
	res := SearchLevelwise(SearchInput{})
	if !res.Feasible || len(res.Paths) != 0 {
		t.Errorf("empty input: %+v", res)
	}
}

// BenchmarkEngines contrasts the A* variant with the basic level-wise
// sweep of Fig. 3(b) on the full 256-config space — the refinement
// Appendix B motivates.
func BenchmarkEngineAStar(b *testing.B) {
	o := testOracle()
	in := SearchInput{
		Tables: tablesFor(o, profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval),
		GSLO:   (319 + 86 + 1047) * time.Millisecond,
		K:      DefaultK,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Search(in); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkEngineLevelwise(b *testing.B) {
	o := testOracle()
	in := SearchInput{
		Tables: tablesFor(o, profile.Deblur, profile.SuperResolution, profile.BackgroundRemoval),
		GSLO:   (319 + 86 + 1047) * time.Millisecond,
		K:      DefaultK,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := SearchLevelwise(in); len(res.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
