package core

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/dominator"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
)

// ESG is the paper's scheduler. For every ready AFW queue it re-runs
// ESG_1Q over the queue's function group — the optimality-guided adaptive
// approach of §3.1: schedules are revisited before the dispatch of every
// serverless function — and dispatches with the locality-aware
// ESG_Dispatch policy of §3.4.
//
// An ESG has a single owner: like a Searcher, it is not safe for
// concurrent use, because Plan fills per-queue planning state in place.
// Concurrent runs use one instance each; the PlanCache and DistMemo they
// may share carry their own locks. The configuration fields below must
// not change once a run has started planning.
type ESG struct {
	// GroupSize is the maximal function-group size of the dominator-based
	// SLO distribution (default 3, §5.4).
	GroupSize int
	// K is the configuration priority-queue depth (default 5, §5.4).
	K int
	// Margin is the safety factor applied to the group target latency so
	// planned paths leave headroom for run-time variation (the Gaussian
	// noise of §4); the search targets Margin × (SLO − w) × q. Default
	// 0.9.
	Margin float64
	// DisableGPUSharing forces whole-GPU allocations (the Fig. 12
	// ablation): every task occupies all vGPUs of a GPU.
	DisableGPUSharing bool
	// DisableBatching forces batch size 1 (the Fig. 12 ablation).
	DisableBatching bool
	// Dists, when non-nil, is a distribution memo shared with other ESG
	// instances of a run grid (see DistMemo). The instance's own memo
	// still fronts it, so the shared memo's lock is off the steady-state
	// Plan path.
	Dists *DistMemo

	// cache, when non-nil, memoizes ESG_1Q searches across Plan calls.
	cache *PlanCache

	// env is the platform view the state below was built for; Plan drops
	// that state when it is handed another one (a new run), or when
	// EnablePlanCache has cleared env.
	env *sched.Env
	// dists memoizes each application's SLO distribution, indexed like
	// env.Apps.
	dists []*dominator.Distribution
	// ctxs holds each queue's planning context, indexed [appIndex][stage]
	// and built on the queue's first Plan.
	ctxs [][]*planContext
}

// planContext is what Plan needs about one (application, stage) queue that
// does not change from call to call.
type planContext struct {
	// in is the search template: Tables, K, Hop and Filter are set; Plan
	// fills in GSLO and MaxFirstBatch.
	in SearchInput
	// quota is the remaining sequence's share of the SLO budget (the q of
	// Algorithm 1).
	quota float64
	// sig is the plan-cache signature of the search (empty without a
	// cache).
	sig string
}

// Option configures an ESG instance.
type Option func(*ESG)

// WithGroupSize sets the maximal function-group size.
func WithGroupSize(g int) Option { return func(e *ESG) { e.GroupSize = g } }

// WithK sets the configuration priority-queue depth.
func WithK(k int) Option { return func(e *ESG) { e.K = k } }

// WithMargin sets the planning safety factor in (0, 1].
func WithMargin(m float64) Option { return func(e *ESG) { e.Margin = m } }

// WithoutGPUSharing disables GPU sharing (ablation).
func WithoutGPUSharing() Option { return func(e *ESG) { e.DisableGPUSharing = true } }

// WithoutBatching disables batching (ablation).
func WithoutBatching() Option { return func(e *ESG) { e.DisableBatching = true } }

// WithPlanCache attaches a memoized ESG_1Q search layer (see PlanCache).
func WithPlanCache(c *PlanCache) Option { return func(e *ESG) { e.cache = c } }

// New returns an ESG scheduler with the paper's defaults.
func New(opts ...Option) *ESG {
	e := &ESG{
		GroupSize: dominator.DefaultGroupSize,
		K:         DefaultK,
		Margin:    0.9,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements sched.Scheduler.
func (e *ESG) Name() string {
	switch {
	case e.DisableGPUSharing && e.DisableBatching:
		return "ESG-noshare-nobatch"
	case e.DisableGPUSharing:
		return "ESG-noshare"
	case e.DisableBatching:
		return "ESG-nobatch"
	default:
		return "ESG"
	}
}

// distribution lazily computes (and caches) the dominator-based SLO
// distribution of an application.
func (e *ESG) distribution(env *sched.Env, appIndex int) *dominator.Distribution {
	if d := e.dists[appIndex]; d != nil {
		return d
	}
	app := env.Apps[appIndex]
	if e.Dists != nil {
		if d, ok := e.Dists.Lookup(app.Name, e.GroupSize); ok {
			e.dists[appIndex] = d
			return d
		}
	}
	anl := dominator.ANL(app, env.Oracle)
	d, err := dominator.Distribute(app, anl, e.GroupSize)
	if err != nil {
		// Non-reducible DAGs fall back to per-stage groups (size 1),
		// which always succeeds for a DAG.
		d, err = dominator.Distribute(app, anl, 1)
		if err != nil {
			panic(err) // cannot happen: size-1 grouping has no branch spans
		}
	}
	if e.Dists != nil {
		e.Dists.Store(app.Name, e.GroupSize, d)
	}
	e.dists[appIndex] = d
	return d
}

// context returns the planning context of q, building it on the queue's
// first Plan. A different env means a new run, whose applications may
// differ: every context and distribution of the previous one is dropped.
func (e *ESG) context(env *sched.Env, q *queue.AFW) *planContext {
	if env != e.env {
		e.env = env
		e.dists = make([]*dominator.Distribution, len(env.Apps))
		e.ctxs = make([][]*planContext, len(env.Apps))
	}
	row := e.ctxs[q.AppIndex]
	if row == nil {
		row = make([]*planContext, env.Apps[q.AppIndex].Len())
		e.ctxs[q.AppIndex] = row
	}
	if pc := row[q.Stage]; pc != nil {
		return pc
	}
	stages, quota := e.distribution(env, q.AppIndex).RemainingSequence(q.Stage)
	tables := make([]*profile.FunctionTable, len(stages))
	for i, s := range stages {
		tables[i] = env.StageTable(q.AppIndex, s)
	}
	// GroupHop folds the data-movement model's expected per-edge transfer
	// into the search when the topology is enabled (HopTransfer otherwise,
	// unchanged). It is a pure function of static config, so it is fixed
	// for the context and the plan cache keys on the hop value.
	pc := &planContext{
		in: SearchInput{
			Tables: tables,
			K:      e.K,
			Hop:    env.GroupHop(q.AppIndex, stages),
			Filter: e.configFilter(env),
		},
		quota: quota,
	}
	if e.cache != nil {
		pc.sig = e.groupSignature(env, q, stages)
	}
	row[q.Stage] = pc
	return pc
}

// configFilter returns the ablation filter, or nil when both features are
// enabled.
func (e *ESG) configFilter(env *sched.Env) func(profile.Config) bool {
	if !e.DisableGPUSharing && !e.DisableBatching {
		return nil
	}
	wholeGPU := env.Cluster.Cfg.NodeGPU
	return func(c profile.Config) bool {
		if e.DisableGPUSharing && c.GPU != wholeGPU {
			return false
		}
		if e.DisableBatching && c.Batch != 1 {
			return false
		}
		return true
	}
}

// Plan implements sched.Scheduler: it derives the group target latency
// (SLO − w) × q from the queue's oldest arrival and its context's quota,
// runs ESG_1Q (through the plan cache when one is attached), and returns
// the distinct first-stage configurations of the top-K paths as the
// configuration priority queue. With a cache the list is the one the
// cache stored with the result, shared with every plan it answers.
func (e *ESG) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	sw := sched.StartStopwatch(env)
	pc := e.context(env, q)

	budget := env.SLOs[q.AppIndex] - q.OldestElapsed(now)
	margin := e.Margin
	if margin <= 0 || margin > 1 {
		margin = 0.9
	}
	n := q.Len()
	in := pc.in
	in.GSLO = time.Duration(float64(budget) * pc.quota * margin)
	in.MaxFirstBatch = n

	var res SearchResult
	if e.cache != nil {
		res = e.cache.Search(in, pc.sig)
	} else {
		res = Search(in)
		res.firsts = firstConfigs(res.Paths, n)
	}
	plan := sched.Plan{Candidates: res.firsts, Overhead: sw.Elapsed()}
	for _, cfg := range res.firsts {
		if cfg.Batch > n {
			// Search bounds stage 0 by the queue length except on an
			// empty queue and in the over-constrained fallback. Clamp
			// into a fresh list, never the shared one.
			plan.Candidates = firstConfigs(res.Paths, n)
			break
		}
	}
	return plan
}

// groupSignature identifies the stage-group search for the plan cache:
// the profile-table generation (oracle identity, named by the cache so
// instances sharing one cache across oracles can never collide), the
// function sequence, and the ablation-filter identity.
func (e *ESG) groupSignature(env *sched.Env, q *queue.AFW, stages []int) string {
	fns := make([]string, len(stages))
	for i, s := range stages {
		fns[i] = q.App.Stage(s).Function
	}
	return GroupSignature(e.cache.TableID(env.Oracle), fns, e.filterID(env))
}

// filterID names the active admissibility filter (the Fig. 12
// ablations). The no-sharing filter depends on the cluster's whole-GPU
// size, so that value is part of the identity.
func (e *ESG) filterID(env *sched.Env) string {
	switch {
	case e.DisableGPUSharing && e.DisableBatching:
		return fmt.Sprintf("noshare%d-nobatch", env.Cluster.Cfg.NodeGPU)
	case e.DisableGPUSharing:
		return fmt.Sprintf("noshare%d", env.Cluster.Cfg.NodeGPU)
	case e.DisableBatching:
		return "nobatch"
	default:
		return ""
	}
}

// EnablePlanCache implements sched.PlanCaching: it attaches a fresh
// memoized search layer (replacing any existing one). The planning
// contexts hold signatures of the old cache, so they are dropped.
func (e *ESG) EnablePlanCache(capacity int, granularity time.Duration) {
	e.cache = NewPlanCache(capacity, granularity)
	e.env = nil
}

// PlanCacheStats implements sched.PlanCaching; zero counters when no cache
// is attached.
func (e *ESG) PlanCacheStats() sched.PlanCacheStats {
	if e.cache == nil {
		return sched.PlanCacheStats{}
	}
	return e.cache.Stats()
}

// Place implements sched.Scheduler with ESG_Dispatch's locality policy.
func (e *ESG) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	return sched.LocalityPlace(env, q, jobs, cfg, now)
}

// MinConfig implements sched.Scheduler, honoring the ablation filters.
func (e *ESG) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	cfg := sched.DefaultMinConfig()
	if e.DisableGPUSharing {
		cfg.GPU = units.VGPU(env.Cluster.Cfg.NodeGPU)
	}
	return cfg
}
