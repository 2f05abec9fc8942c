package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/dominator"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// refSearch is a frozen copy of Searcher.Search with the time-agnostic
// cost-to-go it had before costToGo: a partial path through stage j is
// priced at its cost plus minCostAfter[j+1], whatever time it has left.
// It shares the list preparation, the frontier heap and the path heap
// with Search, so it pops in the old search's order and its Expanded is
// the count the old search reported.
func refSearch(s *Searcher, in SearchInput) SearchResult {
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
	s.prepareLists(in, m, k)
	minTimeAfter := make([]time.Duration, m+1)
	minCostAfter := make([]units.Money, m+1)
	for j := m - 1; j >= 0; j-- {
		mt, mc := listBounds(s.lists[j])
		hop := time.Duration(0)
		if j > 0 {
			hop = in.Hop
		}
		minTimeAfter[j] = minTimeAfter[j+1] + mt + hop
		minCostAfter[j] = minCostAfter[j+1] + mc
	}

	res := SearchResult{}
	s.best.reset(k)
	s.open = s.open[:0]
	s.arena = append(s.arena[:0], node{level: -1})
	s.pushOpen(minCostAfter[0], 0)
	var bestFull bool
	var bestWorst units.Money
	for len(s.open) > 0 {
		it := s.popOpen()
		if bestFull && it.f > bestWorst {
			break
		}
		n := s.arena[it.idx]
		j := int(n.level) + 1
		if n.time+minTimeAfter[j] > in.GSLO {
			continue
		}
		res.Expanded++
		if res.Expanded > maxExp {
			break
		}
		hop := time.Duration(0)
		if j > 0 {
			hop = in.Hop
		}
		for idx := range s.lists[j] {
			e := &s.lists[j][idx]
			t := n.time + hop + e.Time
			if t+minTimeAfter[j+1] > in.GSLO {
				break
			}
			c := n.cost + e.JobCost
			f := c + minCostAfter[j+1]
			if bestFull && f > bestWorst {
				continue
			}
			if j == m-1 {
				s.best.add(s.buildPath(it.idx, e, t, c))
				if bestFull = s.best.full(); bestFull {
					bestWorst = s.best.worst()
				}
				continue
			}
			s.arena = append(s.arena, node{
				parent: it.idx, estIdx: int32(idx), level: int32(j), time: t, cost: c,
			})
			s.pushOpen(f, int32(len(s.arena)-1))
		}
	}
	res.Paths = s.best.take()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(s.admitted, in.Hop)
	}
	return res
}

// scaleStageGroups returns every stage sequence ESG searches for the scale
// applications: the remaining sequence of each stage's group under the
// default dominator distribution, deduplicated by function sequence.
func scaleStageGroups(o *profile.Oracle) [][]*profile.FunctionTable {
	var out [][]*profile.FunctionTable
	seen := map[string]bool{}
	for _, app := range workflow.ScaleApps() {
		dist, err := dominator.Distribute(app, dominator.ANL(app, o), dominator.DefaultGroupSize)
		if err != nil {
			panic(err)
		}
		for stage := 0; stage < app.Len(); stage++ {
			stages, _ := dist.RemainingSequence(stage)
			fns := make([]string, len(stages))
			for i, s := range stages {
				fns[i] = app.Stage(s).Function
			}
			if key := strings.Join(fns, ","); !seen[key] {
				seen[key] = true
				out = append(out, tablesFor(o, fns...))
			}
		}
	}
	return out
}

// TestSearchMatchesReference compares Search with refSearch, path for path,
// over every stage group ESG plans for the scale applications, every
// quantized first-stage batch bound, K of 1, 5 and 80, both hops, ESG's
// three filters and a target ladder from infeasible to loose. The
// time-aware cost-to-go may change only the pop order, so the summed
// expansions, a work count no host can move, must fall at least 3×.
// -short keeps K = 5 only.
func TestSearchMatchesReference(t *testing.T) {
	o := testOracle()
	// The reference still reports the old search's counts for §5.3's
	// two inputs, which sec53's "ESG expansions" column printed.
	for g, want := range map[int]int{3: 2455, 4: 6712} {
		if got := refSearch(NewSearcher(), sec53Input(o, g)).Expanded; got != want {
			t.Fatalf("group %d: reference expanded %d nodes, want %d", g, got, want)
		}
	}
	ks := []int{1, 5, 80}
	if testing.Short() {
		ks = []int{5}
	}
	wholeGPU := cluster.DefaultConfig().NodeGPU
	filters := []func(profile.Config) bool{
		nil,
		func(c profile.Config) bool { return c.GPU == wholeGPU }, // ESG-noshare
		func(c profile.Config) bool { return c.Batch == 1 },      // ESG-nobatch
	}
	groups := scaleStageGroups(o)
	s, ref := NewSearcher(), NewSearcher()
	var expanded, refExpanded, searches, feasible int
	for _, tables := range groups {
		var base time.Duration
		for _, tb := range tables {
			base += tb.Fn.BaseExec
		}
		var bounds []int
		for depth := 0; depth <= 16; depth++ {
			if b := tables[0].QuantizeBatchBound(depth); !slices.Contains(bounds, b) {
				bounds = append(bounds, b)
			}
		}
		for _, maxBatch := range bounds {
			for _, k := range ks {
				for _, hop := range []time.Duration{0, 2 * time.Millisecond} {
					for fi, filter := range filters {
						for _, frac := range []float64{0.1, 0.5, 0.8, 1, 1.3, 2, 4} {
							in := SearchInput{
								Tables:        tables,
								GSLO:          time.Duration(frac * float64(base)),
								MaxFirstBatch: maxBatch,
								K:             k,
								Hop:           hop,
								Filter:        filter,
							}
							got, want := s.Search(in), refSearch(ref, in)
							if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
								t.Fatalf("%s, gslo %.1f×base, maxBatch %d, K %d, hop %v, filter %d: Search %+v, reference %+v",
									groupName(tables), frac, maxBatch, k, hop, fi, got, want)
							}
							expanded += got.Expanded
							refExpanded += want.Expanded
							searches++
							if got.Feasible {
								feasible++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d searches (%d feasible) over %d stage groups: %d expansions, reference %d (%.1f×)",
		searches, feasible, len(groups), expanded, refExpanded, float64(refExpanded)/float64(max(expanded, 1)))
	if feasible == 0 || feasible == searches {
		t.Errorf("%d of %d searches feasible: the target ladder must reach both sides", feasible, searches)
	}
	if 3*expanded > refExpanded {
		t.Errorf("Search expanded %d nodes, more than a third of the reference's %d", expanded, refExpanded)
	}
}

func groupName(tables []*profile.FunctionTable) string {
	names := make([]string, len(tables))
	for i, tb := range tables {
		names[i] = tb.Fn.Name
	}
	return fmt.Sprint(names)
}
