package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/dominator"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

// refPlan is a frozen copy of ESG.Plan's candidate derivation as it stood
// before per-queue planning contexts: every call recomputes the app's SLO
// distribution and the queue's remaining sequence, slices the tables,
// builds the filter and the cache signature, scans the queue for its
// oldest arrival, and clamps then dedupes the first-stage configurations
// through a map. It reads only e's configuration fields; cache, when
// non-nil, is the reference's own plan cache.
func refPlan(e *ESG, env *sched.Env, q *queue.AFW, now time.Duration, cache *PlanCache) []profile.Config {
	app := env.Apps[q.AppIndex]
	anl := dominator.ANL(app, env.Oracle)
	dist, err := dominator.Distribute(app, anl, e.GroupSize)
	if err != nil {
		if dist, err = dominator.Distribute(app, anl, 1); err != nil {
			panic(err)
		}
	}
	stages, quota := dist.RemainingSequence(q.Stage)

	var w time.Duration
	for _, j := range q.Peek(q.Len()) {
		if el := j.Instance.Elapsed(now); el > w {
			w = el
		}
	}
	budget := env.SLOs[q.AppIndex] - w
	margin := e.Margin
	if margin <= 0 || margin > 1 {
		margin = 0.9
	}
	gslo := time.Duration(float64(budget) * quota * margin)

	tables := make([]*profile.FunctionTable, len(stages))
	fns := make([]string, len(stages))
	for i, s := range stages {
		tables[i] = env.StageTable(q.AppIndex, s)
		fns[i] = app.Stage(s).Function
	}
	in := SearchInput{
		Tables:        tables,
		GSLO:          gslo,
		MaxFirstBatch: q.Len(),
		K:             e.K,
		Hop:           env.GroupHop(q.AppIndex, stages),
		Filter:        e.configFilter(env),
	}
	var res SearchResult
	if cache != nil {
		res = cache.Search(in, GroupSignature(cache.TableID(env.Oracle), fns, e.filterID(env)))
	} else {
		res = Search(in)
	}
	var out []profile.Config
	seen := make(map[profile.Config]bool, len(res.Paths))
	for _, p := range res.Paths {
		cfg := p.Ests[0].Config
		if cfg.Batch > q.Len() {
			cfg.Batch = q.Len()
		}
		if !seen[cfg] {
			seen[cfg] = true
			out = append(out, cfg)
		}
	}
	return out
}

// fillQueue returns a fresh (appIndex, stage) queue holding depth jobs at
// time at, the most urgent of which has been in the system for elapsed.
// Arrivals come out of push order, so the most urgent instance is not the
// head, and two extra jobs are pushed and taken first so the queue's
// arrival index has dropped entries.
func fillQueue(env *sched.Env, qs *queue.Set, appIndex, stage, depth int, at, elapsed time.Duration) *queue.AFW {
	app := env.Apps[appIndex]
	q := queue.NewAFW(0, appIndex, app, stage)
	q.FnID = qs.Get(appIndex, stage).FnID
	push := func(id int, arrival time.Duration) {
		inst := queue.NewInstance(id, appIndex, app, arrival, env.SLOs[appIndex])
		q.Push(&queue.Job{Instance: inst, Stage: stage, EnqueuedAt: at})
	}
	push(-2, at-2*elapsed-time.Millisecond)
	push(-1, at-2*elapsed)
	q.Take(2)
	for i := 0; i < depth; i++ {
		rank := (i*7)%depth + 1 // a permutation of 1..depth when gcd(7, depth) = 1
		push(i, at-elapsed*time.Duration(rank)/time.Duration(depth))
	}
	return q
}

// TestESGPlanMatchesReference pins Plan against refPlan over every scale
// application's queues at several depths (0 exercises the defensive
// batch clamp) and urgencies (including overdue instances, whose targets
// drain), for ESG and its two single-feature ablations with and without a
// plan cache. Each queue is re-planned as its clock advances, so every
// cache tier answers.
func TestESGPlanMatchesReference(t *testing.T) {
	env, qs := envFor(t, workflow.ScaleApps(), workflow.Moderate)
	const at = 10 * time.Second
	for _, opts := range [][]Option{nil, {WithoutGPUSharing()}, {WithoutBatching()}} {
		for _, cached := range []bool{false, true} {
			e := New(opts...)
			var refCache *PlanCache
			if cached {
				e.EnablePlanCache(0, 0)
				refCache = NewPlanCache(0, 0)
			}
			for ai, app := range env.Apps {
				for stage := 0; stage < app.Len(); stage++ {
					for _, depth := range []int{0, 1, 3, 8, 40} {
						for _, frac := range []float64{0, 0.4, 0.8, 1.3} {
							q := fillQueue(env, qs, ai, stage, depth, at, time.Duration(frac*float64(env.SLOs[ai])))
							for _, dt := range []time.Duration{0, 0, 3 * time.Millisecond, 11 * time.Millisecond} {
								got := e.Plan(env, q, at+dt).Candidates
								if want := refPlan(e, env, q, at+dt, refCache); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s cached=%v, %s stage %d, depth %d, elapsed %.1f×SLO, +%v: Plan %v, reference %v",
										e.Name(), cached, app.Name, stage, depth, frac, dt, got, want)
								}
							}
						}
					}
				}
			}
			if cached {
				if got, want := e.PlanCacheStats(), refCache.Stats(); got != want {
					t.Errorf("%s: cache counters %+v, reference %+v", e.Name(), got, want)
				}
			}
		}
	}
}

// TestESGReuseAcrossEnvs hands one ESG two runs whose application lists
// differ (the scale apps, then the same apps in reverse order): the second
// run's plans must be a fresh instance's, not plans against the first
// run's SLO distributions. A cache attached between the runs must not
// inherit the contexts built without one either.
func TestESGReuseAcrossEnvs(t *testing.T) {
	apps := workflow.ScaleApps()
	reversed := slices.Clone(apps)
	slices.Reverse(reversed)
	const at = 10 * time.Second
	plan := func(s *ESG, env *sched.Env, q *queue.AFW) (out string) {
		defer func() {
			if r := recover(); r != nil {
				out = fmt.Sprint("panic: ", r)
			}
		}()
		return fmt.Sprint(s.Plan(env, q, at).Candidates)
	}
	planAll := func(s *ESG, env *sched.Env, qs *queue.Set) []string {
		var out []string
		for ai, app := range env.Apps {
			for stage := 0; stage < app.Len(); stage++ {
				q := fillQueue(env, qs, ai, stage, 3, at, env.SLOs[ai]/3)
				out = append(out, fmt.Sprintf("%s stage %d: %s", app.Name, stage, plan(s, env, q)))
			}
		}
		return out
	}
	compare := func(what string, got, want []string) {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: reused ESG planned %s, a fresh one %s", what, got[i], want[i])
			}
		}
	}
	for _, cached := range []bool{false, true} {
		reused := New()
		env, qs := envFor(t, apps, workflow.Moderate)
		planAll(reused, env, qs)
		fresh := func() *ESG {
			e := New()
			if cached {
				e.EnablePlanCache(0, 0)
			}
			return e
		}
		if cached {
			reused.EnablePlanCache(0, 0)
			compare("cache attached mid-run", planAll(reused, env, qs), planAll(fresh(), env, qs))
		}
		env, qs = envFor(t, reversed, workflow.Moderate)
		compare(fmt.Sprintf("cached=%v, next run", cached), planAll(reused, env, qs), planAll(fresh(), env, qs))
	}
}
