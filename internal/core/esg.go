package core

import (
	"fmt"
	"sync"
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
	// instances of a run grid (see DistMemo). The per-instance dists map
	// still fronts it, so the shared memo's lock is off the steady-state
	// Plan path.
	Dists *DistMemo

	// cache, when non-nil, memoizes ESG_1Q searches across Plan calls.
	cache *PlanCache
	// mu guards the lazily filled sigs and dists memos. The plan cache
	// carries its own synchronization.
	mu sync.Mutex
	// sigs memoizes the cache signature per (oracle, stage) — Plan is
	// the hot path, and the signature is deterministic for those inputs.
	sigs map[sigKey]string

	dists map[int]*dominator.Distribution
}

// sigKey locates one memoized group signature: the profile tables it was
// built against and the queue stage whose remaining sequence it names.
type sigKey struct {
	oracle   *profile.Oracle
	appIndex int
	stage    int
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
		dists:     make(map[int]*dominator.Distribution),
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.dists[appIndex]; ok {
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

// Plan implements sched.Scheduler: it computes the queue's remaining group
// sequence and time quota from the dominator-based distribution, derives
// the group target latency (SLO − w) × q, runs ESG_1Q, and returns the
// distinct first-stage configurations of the top-K paths as the
// configuration priority queue.
func (e *ESG) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	sw := sched.StartStopwatch(env)

	dist := e.distribution(env, q.AppIndex)
	stages, quota := dist.RemainingSequence(q.Stage)

	slo := env.SLOs[q.AppIndex]
	w := q.OldestElapsed(now) // longest elapsed time among queued instances
	budget := slo - w
	margin := e.Margin
	if margin <= 0 || margin > 1 {
		margin = 0.9
	}
	gslo := time.Duration(float64(budget) * quota * margin)

	tables := make([]*profile.FunctionTable, len(stages))
	for i, s := range stages {
		tables[i] = env.StageTable(q.AppIndex, s)
	}

	// GroupHop folds the data-movement model's expected per-edge transfer
	// into the search when the topology is enabled (HopTransfer otherwise,
	// unchanged). It is a pure function of static config, so concurrent
	// planning stays sound and the plan cache keys on the hop value.
	in := SearchInput{
		Tables:        tables,
		GSLO:          gslo,
		MaxFirstBatch: q.Len(),
		K:             e.K,
		Hop:           env.GroupHop(q.AppIndex, stages),
		Filter:        e.configFilter(env),
	}
	var res SearchResult
	if e.cache != nil {
		res = e.cache.Search(in, e.groupSignature(env, q, stages))
	} else {
		res = Search(in)
	}

	plan := sched.Plan{Overhead: sw.Elapsed()}
	seen := make(map[profile.Config]bool, len(res.Paths))
	for _, p := range res.Paths {
		cfg := p.Ests[0].Config
		if cfg.Batch > q.Len() {
			cfg.Batch = q.Len() // defensive: Search already bounds stage 0
		}
		if !seen[cfg] {
			seen[cfg] = true
			plan.Candidates = append(plan.Candidates, cfg)
		}
	}
	return plan
}

// groupSignature identifies the stage-group search for the plan cache:
// the profile-table generation (oracle identity, named by the cache so
// instances sharing one cache across oracles can never collide), the
// function sequence, and the ablation-filter identity. Signatures are
// memoized per (oracle, app, stage) — the remaining sequence is
// deterministic for those inputs — keeping the hit path allocation-free.
func (e *ESG) groupSignature(env *sched.Env, q *queue.AFW, stages []int) string {
	k := sigKey{oracle: env.Oracle, appIndex: q.AppIndex, stage: q.Stage}
	e.mu.Lock()
	defer e.mu.Unlock()
	if sig, ok := e.sigs[k]; ok {
		return sig
	}
	fns := make([]string, len(stages))
	for i, s := range stages {
		fns[i] = q.App.Stage(s).Function
	}
	sig := GroupSignature(e.cache.TableID(env.Oracle), fns, e.filterID(env))
	if e.sigs == nil {
		e.sigs = make(map[sigKey]string)
	}
	e.sigs[k] = sig
	return sig
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
// memoized search layer (replacing any existing one).
func (e *ESG) EnablePlanCache(capacity int, granularity time.Duration) {
	e.cache = NewPlanCache(capacity, granularity)
	e.sigs = nil
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
