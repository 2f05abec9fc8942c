package orion

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// refSearch is a frozen copy of the best-first search as first written —
// a fresh []int8 per state, a map[string]bool visited set and a boxed
// container/heap frontier — kept as the oracle the arena search must match
// state for state.
func refSearch(s *Scheduler, env *sched.Env, appIndex int) outcome {
	app := env.Apps[appIndex]
	slo := env.SLOs[appIndex]
	space := env.Oracle.Space
	m := app.Len()
	hop := env.HopTransfer() * time.Duration(m-1)

	luts := make([]*stageLUT, m)
	for i := 0; i < m; i++ {
		luts[i] = buildLUT(env, app.Stage(i).Function, env.Noise.P95Factor())
	}

	start := &refState{idx: make([]int8, 3*m)}
	for i := 0; i < m; i++ {
		t, c := luts[i].at(0, 0, 0)
		start.p95 += t
		start.cost += c
	}
	start.p95 += hop
	start.gap = gapTo(start.p95, slo)

	open := &refHeap{}
	heap.Push(open, start)
	visited := map[string]bool{string(refKey(start.idx)): true}

	budget := s.budgetExpansions()
	expansions := 0
	closest := start
	var bestFeasible *refState

	dims := []int{len(space.Batches), len(space.CPUs), len(space.GPUs)}
	for open.Len() > 0 && expansions < budget {
		st := heap.Pop(open).(*refState)
		expansions++
		if st.gap < closest.gap {
			closest = st
		}
		if st.p95 <= slo && (bestFeasible == nil || st.cost < bestFeasible.cost) {
			bestFeasible = st
		}
		for i := 0; i < m; i++ {
			oldT, oldC := luts[i].at(int(st.idx[3*i]), int(st.idx[3*i+1]), int(st.idx[3*i+2]))
			for d := 0; d < 3; d++ {
				pos := 3*i + d
				if int(st.idx[pos])+1 >= dims[d] {
					continue
				}
				nidx := append([]int8(nil), st.idx...)
				nidx[pos]++
				k := string(refKey(nidx))
				if visited[k] {
					continue
				}
				visited[k] = true
				newT, newC := luts[i].at(int(nidx[3*i]), int(nidx[3*i+1]), int(nidx[3*i+2]))
				ns := &refState{
					idx:  nidx,
					cost: st.cost - oldC + newC,
					p95:  st.p95 - oldT + newT,
				}
				ns.gap = gapTo(ns.p95, slo)
				heap.Push(open, ns)
			}
		}
	}

	o := outcome{closest: refMaterialize(space, closest.idx, m), expansions: expansions}
	if bestFeasible != nil {
		o.feasible = refMaterialize(space, bestFeasible.idx, m)
	}
	return o
}

type refState struct {
	idx  []int8 // 3 per stage: batch, cpu, gpu option indices
	cost units.Money
	p95  time.Duration
	gap  time.Duration
}

type refHeap []*refState

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].gap < h[j].gap }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refState)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

func refKey(idx []int8) []byte {
	out := make([]byte, len(idx))
	for i, v := range idx {
		out[i] = byte(v)
	}
	return out
}

func refMaterialize(space profile.Space, idx []int8, m int) []profile.Config {
	out := make([]profile.Config, m)
	for i := 0; i < m; i++ {
		out[i] = profile.Config{
			Batch: space.Batches[idx[3*i]],
			CPU:   space.CPUs[idx[3*i+1]],
			GPU:   space.GPUs[idx[3*i+2]],
		}
	}
	return out
}

func testEnv(space profile.Space, level workflow.SLOLevel, apps []*workflow.App) *sched.Env {
	reg := profile.Table3Registry()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, level, reg)
	}
	return &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, space, pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
		Noise:    profile.DefaultNoise(),
	}
}

// longChain is an 11-stage app: its key needs two words in both spaces.
func longChain() *workflow.App {
	fns := profile.Table3Registry().Names()
	stages := make([]string, 11)
	for i := range stages {
		stages[i] = fns[i%len(fns)]
	}
	return workflow.Chain("long-chain", stages...)
}

func newWithCutOff(cutoff time.Duration) *Scheduler {
	s := New()
	s.CutOff = cutoff
	return s
}

// TestSearchMatchesReference compares the arena search with refSearch over
// both spaces, every SLO level, three cut-offs and the scale apps plus an
// 11-stage chain. The 100 ms cut-off runs on the evaluation apps in the
// default space only, to keep the reference's cost in check. One scheduler
// per space and cut-off runs every search, so each also starts from an
// arena a larger search left behind.
func TestSearchMatchesReference(t *testing.T) {
	spaces := map[string]profile.Space{"default": profile.DefaultSpace(), "small": profile.SmallSpace()}
	apps := append(workflow.ScaleApps(), longChain())
	eval := len(workflow.EvaluationApps())
	for name, space := range spaces {
		for _, cutoff := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
			s := newWithCutOff(cutoff)
			for _, level := range []workflow.SLOLevel{workflow.Strict, workflow.Moderate, workflow.Relaxed} {
				env := testEnv(space, level, apps)
				for i, app := range apps {
					if cutoff == 100*time.Millisecond && (i >= eval || name != "default" || testing.Short()) {
						continue
					}
					got, want := s.bestFirst(env, i), refSearch(s, env, i)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%v/%v/%s: arena search %+v, reference %+v", name, level, cutoff, app.Name, got, want)
					}
				}
			}
		}
	}
}

// FuzzOrionSearch draws an app of 1–12 stages over the Table-3 functions,
// an SLO level, a cut-off of at most 50 ms and a space, and checks the arena
// search against refSearch.
func FuzzOrionSearch(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(0), uint16(999), false)
	f.Add(uint8(2), uint64(12345), uint8(1), uint16(5000), true)
	f.Add(uint8(4), uint64(987654321), uint8(2), uint16(20000), false)
	f.Add(uint8(7), uint64(42), uint8(0), uint16(3000), false)     // 8 stages: one word in DefaultSpace
	f.Add(uint8(8), uint64(4242), uint8(2), uint16(3000), false)   // 9 stages: two words
	f.Add(uint8(11), uint64(1<<40), uint8(1), uint16(2500), true)  // 12 stages: two words
	f.Add(uint8(10), uint64(77), uint8(0), uint16(49999), true)    // 11 stages, 50 ms
	f.Add(uint8(3), uint64(31337), uint8(2), uint16(49999), false) // 4 stages, 50 ms
	fns := profile.Table3Registry().Names()
	envs := map[[2]int]*sched.Env{}
	f.Fuzz(func(t *testing.T, stages uint8, pick uint64, level uint8, cutoffUS uint16, small bool) {
		m := int(stages)%12 + 1
		names := make([]string, m)
		for i := range names {
			names[i] = fns[pick%uint64(len(fns))]
			pick /= uint64(len(fns))
		}
		app := workflow.Chain(fmt.Sprintf("fuzz-%d", m), names...)
		space, si := profile.DefaultSpace(), 0
		if small {
			space, si = profile.SmallSpace(), 1
		}
		lv := workflow.SLOLevel(level % 3)
		env, ok := envs[[2]int{si, int(lv)}]
		if !ok {
			env = testEnv(space, lv, nil)
			envs[[2]int{si, int(lv)}] = env
		}
		env.Apps = []*workflow.App{app}
		env.SLOs = []time.Duration{workflow.SLOFor(app, lv, env.Registry)}
		s := newWithCutOff(time.Duration(int(cutoffUS)%50000+1) * time.Microsecond)
		got, want := s.bestFirst(env, 0), refSearch(s, env, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d stages %v, %v, cut-off %v, small=%v: arena search %+v, reference %+v",
				m, names, lv, s.CutOff, small, got, want)
		}
	})
}

// TestSearchAllocsIndependentOfBudget pins the arena search's allocations
// at the same small bound for a 10 ms and a 100 ms cut-off: once the arena
// has grown, a search allocates only its lookup tables and its result. The
// reference search allocated several objects per generated state.
func TestSearchAllocsIndependentOfBudget(t *testing.T) {
	env := testEnv(profile.DefaultSpace(), workflow.Strict, workflow.EvaluationApps())
	const app = 3 // the five-stage expanded image classification
	const bound = 32
	for _, cutoff := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond} {
		s := newWithCutOff(cutoff)
		allocs := testing.AllocsPerRun(3, func() { s.search(env, app) })
		if allocs > bound {
			t.Errorf("cut-off %v: %.0f allocs per search, want ≤ %d", cutoff, allocs, bound)
		}
	}
}

var sinkOutcome outcome

// BenchmarkOrionSearch times the four evaluation apps' searches at the
// strict SLO and the default 100 ms cut-off: "arena" is the search Plan
// runs, "ref" the frozen reference on the same input.
func BenchmarkOrionSearch(b *testing.B) {
	apps := workflow.EvaluationApps()
	env := testEnv(profile.DefaultSpace(), workflow.Strict, apps)
	for _, bc := range []struct {
		name   string
		search func(*Scheduler, *sched.Env, int) outcome
	}{
		{"arena", (*Scheduler).bestFirst},
		{"ref", refSearch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for a := range apps {
					sinkOutcome = bc.search(s, env, a)
				}
			}
		})
	}
}
