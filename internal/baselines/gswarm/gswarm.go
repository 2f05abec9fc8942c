// Package gswarm implements a GSwarm-style static-placement scheduler:
// workflow stage co-occurrence is mined from the registered applications
// once at startup, every (application, stage) pair is pinned to one invoker
// with server-aware grouping, and nothing ever migrates — placement is a
// table lookup with zero switching cost. Each pinned invoker keeps serving
// the same functions for the whole run, so warm pools concentrate and
// model-switch churn is structurally impossible (the property the GSwarm
// line of work optimizes for).
//
// The static schedule is built from three deterministic passes:
//
//  1. mining — per-stage minimum-configuration service times weight each
//     application, and the functions shared between applications form the
//     co-occurrence structure (the scale app set reuses six functions
//     across eight workflows);
//  2. grouping — invokers are partitioned into fixed "servers" of
//     ServerSize consecutive IDs, and applications are assigned greedily
//     (heaviest first) to the server minimizing load-after-sharing: a
//     server already hosting an application's functions absorbs it at a
//     discount, so co-occurring workflows gravitate to the same server;
//  3. pinning — within its server, each stage lands on the invoker already
//     pinned for its function (one persistent replica serves every
//     co-located user of the model) or, for a first use, on the
//     least-loaded invoker of the server.
//
// Configurations are static too: each stage runs the cheapest configuration
// meeting its mean-service SLO split, chosen once at table build and only
// batch-clamped (a recorded ConfigMiss, Table 4) when the queue is shorter
// than the preset batch.
package gswarm

import (
	"sort"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// DefaultServerSize is the number of invokers grouped into one "server"
// (the GSwarm default of four GPUs per server, mapped to invokers).
const DefaultServerSize = 4

// Scheduler is the GSwarm static-placement baseline.
type Scheduler struct {
	// ServerSize groups invokers into servers of this many consecutive
	// IDs (default DefaultServerSize). Applications are grouped by
	// co-occurrence within servers, never across them.
	ServerSize int

	// mu guards the lazily built table and the hit/cold counters.
	mu    sync.Mutex
	table *table
	stats sched.PlanCacheStats
}

// table is the precomputed static schedule: one pinned invoker and one
// configuration per (application, stage), plus the server grouping the
// failover path walks.
type table struct {
	pin      [][]int            // [app][stage] -> invoker ID
	ladders  []baselines.Ladder // [app] -> static per-stage configurations
	servers  [][]int            // server -> member invoker IDs
	serverOf []int              // app -> server index
}

// New returns a GSwarm scheduler.
func New() *Scheduler {
	return &Scheduler{ServerSize: DefaultServerSize}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "GSwarm" }

// EnablePlanCache implements sched.PlanCaching. The static table is
// structural and always on — one cold build, every later Plan answered
// from it — so there is nothing to attach or size.
func (s *Scheduler) EnablePlanCache(capacity int, granularity time.Duration) {}

// PlanCacheStats implements sched.PlanCaching: Misses counts table builds
// (one per run), Hits the plans answered from the table.
func (s *Scheduler) PlanCacheStats() sched.PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Prime builds the static placement table from env immediately instead of
// on the first Plan call. It is optional — Plan and Place prime lazily —
// and idempotent.
func (s *Scheduler) Prime(env *sched.Env) { s.tableFor(env) }

// tableFor returns the static table, building it on first use.
func (s *Scheduler) tableFor(env *sched.Env) *table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.table == nil {
		s.stats.Misses++
		s.table = s.build(env)
		return s.table
	}
	s.stats.Hits++
	return s.table
}

// serverSize returns the effective grouping width.
func (s *Scheduler) serverSize() int {
	if s.ServerSize > 0 {
		return s.ServerSize
	}
	return DefaultServerSize
}

// build runs the mining/grouping/pinning passes. It is deterministic: apps
// are visited heaviest-first (stable on index), servers and invokers are
// scanned in ID order, and all loads are exact duration sums.
func (s *Scheduler) build(env *sched.Env) *table {
	nApps := len(env.Apps)
	t := &table{
		pin:      make([][]int, nApps),
		ladders:  make([]baselines.Ladder, nApps),
		serverOf: make([]int, nApps),
	}

	// Server formation: consecutive invoker-ID blocks of ServerSize.
	size := s.serverSize()
	for lo := 0; lo < len(env.Cluster.Invokers); lo += size {
		hi := lo + size
		if hi > len(env.Cluster.Invokers) {
			hi = len(env.Cluster.Invokers)
		}
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		t.servers = append(t.servers, ids)
	}
	if nApps == 0 || len(t.servers) == 0 {
		return t
	}

	// Mining: per-stage minimum-configuration service times. The summed
	// work orders applications (heaviest first) and prices sharing below.
	work := make([][]time.Duration, nApps)
	total := make([]time.Duration, nApps)
	for i, app := range env.Apps {
		work[i] = make([]time.Duration, app.Len())
		for k := 0; k < app.Len(); k++ {
			w := env.Registry.MustLookup(app.Stage(k).Function).Exec(profile.MinConfig)
			work[i][k] = w
			total[i] += w
		}
	}
	order := make([]int, nApps)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })

	// Grouping + pinning.
	pinnedFn := make([]map[string]int, len(t.servers)) // server -> fn -> invoker ID
	srvLoad := make([]time.Duration, len(t.servers))
	invLoad := make(map[int]time.Duration, len(env.Cluster.Invokers))
	for i := range pinnedFn {
		pinnedFn[i] = make(map[string]int)
	}
	for _, a := range order {
		app := env.Apps[a]
		// Choose the server minimizing load-after-sharing: stages whose
		// function is already pinned there ride an existing replica, so
		// their work is discounted from the server's effective load.
		best, bestScore := 0, time.Duration(0)
		for sv := range t.servers {
			var shared time.Duration
			for k := 0; k < app.Len(); k++ {
				if _, ok := pinnedFn[sv][app.Stage(k).Function]; ok {
					shared += work[a][k]
				}
			}
			score := srvLoad[sv] - shared
			if sv == 0 || score < bestScore {
				best, bestScore = sv, score
			}
		}
		t.serverOf[a] = best
		t.pin[a] = make([]int, app.Len())
		cfgs := make([]profile.Config, app.Len())
		budgets := sched.MeanServiceSplit(app, env.Registry, env.SLOs[a])
		for k := 0; k < app.Len(); k++ {
			fn := app.Stage(k).Function
			id, ok := pinnedFn[best][fn]
			if !ok {
				id = leastLoaded(t.servers[best], invLoad)
				pinnedFn[best][fn] = id
			}
			t.pin[a][k] = id
			invLoad[id] += work[a][k]
			srvLoad[best] += work[a][k]
			cfgs[k] = staticConfig(env, a, k, budgets[k])
		}
		t.ladders[a] = baselines.NewLadder(cfgs)
	}
	return t
}

// leastLoaded returns the member invoker with the smallest pinned work so
// far, ties broken toward the lowest ID.
func leastLoaded(ids []int, load map[int]time.Duration) int {
	best := ids[0]
	for _, id := range ids[1:] {
		if load[id] < load[best] {
			best = id
		}
	}
	return best
}

// staticConfig picks the stage's one persistent configuration: the cheapest
// (then fastest) configuration meeting the stage's SLO split, or the
// fastest overall when nothing does — chosen once, never adapted.
func staticConfig(env *sched.Env, appIndex, stage int, budget time.Duration) profile.Config {
	ests := env.StageTable(appIndex, stage).LatencyAscending(0)
	bestIdx := -1
	for i, e := range ests {
		if e.Time > budget {
			break // latency-ascending: the rest are slower
		}
		if bestIdx < 0 || cheaper(e, ests[bestIdx]) {
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		return ests[bestIdx].Config
	}
	if len(ests) > 0 {
		return ests[0].Config
	}
	return sched.DefaultMinConfig()
}

// cheaper is the total order the static choice minimizes: job cost, then
// time, then ConfigLess (the tie-break shared by the baseline rankings).
func cheaper(a, b profile.Estimate) bool {
	if a.JobCost != b.JobCost {
		return a.JobCost < b.JobCost
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return baselines.ConfigLess(a.Config, b.Config)
}

// Plan implements sched.Scheduler: the stage's preset configuration from
// the static table, batch-clamped (and recorded as a miss, Table 4) when
// the preset batch exceeds the queue. There is no per-queue search — the
// zero-switching property the scheduler is built around.
func (s *Scheduler) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	sw := sched.StartStopwatch(env)
	t := s.tableFor(env)
	plan := t.ladders[q.AppIndex].Plan(q.Stage, q.Len())
	plan.Overhead = sw.Elapsed()
	return plan
}

// Place implements sched.Scheduler: the pinned invoker, from the
// precomputed table. A busy pinned invoker is waited for, never migrated
// from; only a crashed one fails over — deterministically, first inside
// the application's server, then fleet-wide by ID, never onto a down
// invoker.
func (s *Scheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	t := s.tableFor(env)
	res := cfg.Resources()
	pinned := env.Cluster.Invokers[t.pin[q.AppIndex][q.Stage]]
	if pinned.Up() {
		if pinned.CanFit(res) {
			return pinned
		}
		return nil // static placement: wait for the pinned invoker
	}
	for _, id := range t.servers[t.serverOf[q.AppIndex]] {
		if inv := env.Cluster.Invokers[id]; inv.Up() && inv.CanFit(res) {
			return inv
		}
	}
	for _, inv := range env.Cluster.Invokers {
		if inv.Up() && inv.CanFit(res) {
			return inv
		}
	}
	return nil
}

// MinConfig implements sched.Scheduler.
func (s *Scheduler) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return sched.DefaultMinConfig()
}

// Pin returns the invoker ID the static table pins an (application, stage)
// pair to, building the table from env if needed. Tests and diagnostics
// use it to inspect the mined placement.
func (s *Scheduler) Pin(env *sched.Env, appIndex, stage int) int {
	return s.tableFor(env).pin[appIndex][stage]
}
