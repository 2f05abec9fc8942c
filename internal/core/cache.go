package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
)

// Plan-cache defaults. The granularity trades hit rate against plan
// freshness: group targets are floored to a bucket boundary before the
// search runs, so a cached plan is always at least as tight as the target
// it is reused for.
const (
	// DefaultCacheSize bounds the number of memoized searches kept, across
	// all stage groups. Entries are small (up to K paths of a few estimates
	// each); a production-scale run keeps a few thousand live — stage
	// groups × quantized queue depths × distinct answers per group. At
	// seed 42 the benchmark's plan-cache workloads peak at 2,122–4,097,
	// so only the chaos workload drops a group.
	DefaultCacheSize = 4096
	// DefaultCacheGranularity is the GSLO bucket width. The controller's
	// scheduling quantum is 2 ms, so targets recur at millisecond scale;
	// 5 ms buckets absorb the jitter of the queue head's elapsed time
	// while staying well inside the 0.9 planning margin.
	DefaultCacheGranularity = 5 * time.Millisecond
)

// groupKey identifies one stage-group search up to its target: the
// stage-group signature (function sequence + filter identity + table
// generation), the quantized queue depth and the remaining search inputs.
// Two searches under one groupKey differ only in GSLO.
type groupKey struct {
	sig      string
	maxBatch int // queue depth quantized to the first stage's batch options
	k        int
	hop      time.Duration
	maxExp   int // expansion cap: a truncated search is not a full one
}

// entry is one memoized search: a frozen result that answers every
// quantized target in [lo, hi]. hi is the target it was searched at; lo
// is its slowest kept path when feasible and 0 when infeasible (the drain
// fallback does not depend on the target). A search truncated at its
// expansion cap answers only its own target: lo = hi. Within one answer a
// tighter target expands no more nodes, so a truncated search never falls
// inside another entry's interval (FuzzPlanCache checks both under small
// caps).
type entry struct {
	res    SearchResult
	lo, hi time.Duration
	// snapshot is a deep copy of res taken at insertion when
	// CheckMutations is armed; Integrity compares against it.
	snapshot *SearchResult
}

// group holds one stage group's entries sorted by hi, with disjoint
// intervals (one entry per distinct answer), and the recency stamp the
// capacity bound evicts by.
type group struct {
	entries []entry
	lastUse uint64
}

// search returns the index of the first entry with hi >= q.
func (g *group) search(q time.Duration) int {
	return sort.Search(len(g.entries), func(i int) bool { return g.entries[i].hi >= q })
}

// find returns the entry answering the quantized target q, or nil. Only
// the first entry with hi >= q can answer: feasible sets only grow with
// the target, so if the entry searched at the smallest hi >= q keeps a
// path slower than q, so does every looser one.
func (g *group) find(q time.Duration) *entry {
	if i := g.search(q); i < len(g.entries) && g.entries[i].lo <= q {
		return &g.entries[i]
	}
	return nil
}

// insert places e, which no entry answers at e.hi, and returns how many
// entries it replaced: those with hi in [e.lo, e.hi) hold exactly e's
// answer, by the argument find rests on.
func (g *group) insert(e entry) int {
	from, to := g.search(e.lo), g.search(e.hi)
	g.entries = slices.Replace(g.entries, from, to, e)
	return to - from
}

// PlanCache memoizes ESG_1Q searches. Repeated searches over the same
// function group at the same (quantized) target return the cached Path set
// instead of re-expanding the configuration graph (§3.3's search is the
// scheduler's hot path; §5.4 bounds it to milliseconds — a hit makes it
// nanoseconds).
//
// Two quantizations make targets recur:
//
//   - The queue depth only matters through the largest batch option of the
//     first stage that still fits, so depths 9..11 under batch options
//     {...,8,12,...} all map to 8. This mapping is exact: the quantized
//     search sees the identical configuration lists.
//   - GSLO is floored to a Granularity bucket and the search runs against
//     the bucket floor. This is conservative: every path feasible under
//     the floored target is feasible under the real one, so a cached plan
//     never overshoots the SLO it is reused for.
//
// The store is one index: per stage group, entries sorted by the quantized
// target each was searched at, each answering a feasibility interval of
// targets. A feasible search at target g whose slowest kept path takes
// t_max answers every quantized target in [t_max, g] (the K cheapest paths
// cannot change while they all stay feasible), and an infeasible search at
// g answers every tighter target. Under the controller's 2 ms re-planning
// cadence group targets tighten monotonically as the queue head ages,
// which is exactly the pattern this absorbs. A lookup no entry answers —
// including a target below t_max — runs a cold search at the quantized
// target. Capacity bounds the entries across all groups; past it the
// least-recently-used group is dropped whole.
//
// All methods are safe for concurrent use. Cold searches run outside the
// cache lock, so two planners that miss the same target at once both
// search: their results are identical and only the first is inserted, but
// both count as misses. Answers therefore never depend on the interleaving
// of concurrent callers; the counters may.
//
// Read-only contract: the returned SearchResult — the Paths slice, every
// Path.Ests in it, and the candidate list derived from them, which ESG
// returns as sched.Plan.Candidates — is shared between the cache and every
// past and future caller it answers. Callers must not modify it. Every
// slice is capacity-frozen, so an append always copies; writing elements
// in place corrupts other callers' plans. CheckMutations/Integrity exist
// to catch exactly that in tests.
type PlanCache struct {
	mu          sync.Mutex
	capacity    int
	granularity time.Duration
	groups      map[groupKey]*group
	size        int    // entries across all groups
	useSeq      uint64 // group recency clock
	stats       sched.PlanCacheStats
	checkMut    bool

	// oracleIDs names each profile-table generation ever seen by this
	// cache, so schedulers sharing the cache across different oracles
	// can never collide on a signature.
	oracleIDs map[*profile.Oracle]uint64
	nextID    uint64
}

// NewPlanCache returns a cache bounded to capacity entries with the given
// GSLO bucket width. Non-positive arguments select the defaults.
func NewPlanCache(capacity int, granularity time.Duration) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	if granularity <= 0 {
		granularity = DefaultCacheGranularity
	}
	return &PlanCache{
		capacity:    capacity,
		granularity: granularity,
		groups:      make(map[groupKey]*group),
		oracleIDs:   make(map[*profile.Oracle]uint64),
	}
}

// TableID names the profile-table generation behind an oracle, unique
// within this cache: schedulers sharing one cache across different
// oracles get disjoint signatures, so plans computed against one set of
// tables are never served for another. The mapping pins the oracle in
// memory for the cache's lifetime (bounded by the distinct oracles seen).
func (c *PlanCache) TableID(o *profile.Oracle) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.oracleIDs[o]
	if !ok {
		c.nextID++
		id = c.nextID
		c.oracleIDs[o] = id
	}
	return "t" + strconv.FormatUint(id, 10)
}

// Len returns the number of cached entries across all stage groups.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Stats returns a snapshot of the hit/miss counters. A lookup counts as
// exactly one of Hits (answered by the entry searched at its own target),
// IntervalHits (answered through another target's feasibility interval)
// or Misses (a cold search).
func (c *PlanCache) Stats() sched.PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CheckMutations arms mutation detection: every result inserted from now
// on is deep-copied, and Integrity compares the live cached plans against
// the copies. This is the enforcement half of the read-only contract on
// cached plans (see the type comment); tests arm it, production pays
// nothing.
func (c *PlanCache) CheckMutations() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkMut = true
}

// Integrity returns an error naming the first cached plan whose live
// storage differs from its insertion-time snapshot — proof that a caller
// wrote through a shared read-only result. It only sees entries inserted
// after CheckMutations.
func (c *PlanCache) Integrity() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, g := range c.groups {
		for _, e := range g.entries {
			if e.snapshot != nil && !sharedEqual(e.res, *e.snapshot) {
				return fmt.Errorf("core: cached plan for %q (searched at %v) was mutated by a caller; plans returned by PlanCache.Search are read-only",
					key.sig, e.hi)
			}
		}
	}
	return nil
}

// QuantizeGSLO floors d to the cache's bucket width (at least one bucket,
// so a positive target never quantizes to zero and below-bucket targets
// stay infeasible-tight rather than becoming trivially infeasible at 0).
// Non-positive targets all collapse to one bucket: no configuration can
// meet them, so the search degenerates to the same GSLO-independent drain
// paths — without the clamp, an overdue queue would mint a fresh target
// per Plan call exactly when the scheduler is busiest.
func (c *PlanCache) QuantizeGSLO(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	q := d / c.granularity * c.granularity
	if q <= 0 {
		q = d // below one bucket: keep the exact value
	}
	return q
}

// quantizeFirstBatch maps the queue depth to the largest batch option of
// the first stage that is <= depth (see FunctionTable.QuantizeBatchBound):
// the filtered config list is identical for every depth in a bucket.
func quantizeFirstBatch(in SearchInput, depth int) int {
	if len(in.Tables) == 0 {
		return 0
	}
	return in.Tables[0].QuantizeBatchBound(depth)
}

// Search runs a memoized ESG_1Q search. sig must identify everything that
// shapes the result but is not part of the key's scalar fields: the stage
// sequence (function names), the profile-table generation and the
// admissibility filter. Results are shared — callers must treat the
// returned paths as read-only (see the type comment). Every answer, cached
// or cold, equals a fresh search at the quantized target.
func (c *PlanCache) Search(in SearchInput, sig string) SearchResult {
	in.GSLO = c.QuantizeGSLO(in.GSLO)
	in.MaxFirstBatch = quantizeFirstBatch(in, in.MaxFirstBatch)
	key := groupKey{sig: sig, maxBatch: in.MaxFirstBatch, k: in.K, hop: in.Hop, maxExp: in.MaxExpansions}
	q := in.GSLO

	c.mu.Lock()
	if g, ok := c.groups[key]; ok {
		if e := g.find(q); e != nil {
			c.useSeq++
			g.lastUse = c.useSeq
			if e.hi == q {
				c.stats.Hits++
			} else {
				c.stats.IntervalHits++
			}
			res := e.res
			c.mu.Unlock()
			return res
		}
	}
	c.mu.Unlock()

	// Run the search outside the cache lock so concurrent users of the
	// cache never serialize on each other's searches; a racing duplicate
	// insert is skipped (identical inputs give identical results).
	res := freezeResult(Search(in))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
	g, ok := c.groups[key]
	if !ok {
		g = &group{}
		c.groups[key] = g
	} else if g.find(q) != nil {
		return res
	}
	e := entry{res: res, hi: q}
	maxExp := in.MaxExpansions
	if maxExp <= 0 {
		maxExp = defaultMaxExpansions
	}
	switch {
	case res.Expanded > maxExp:
		e.lo = q
	case res.Feasible:
		for _, p := range res.Paths {
			e.lo = max(e.lo, p.Time)
		}
	}
	if c.checkMut {
		e.snapshot = deepCopyShared(res)
	}
	c.size += 1 - g.insert(e)
	c.useSeq++
	g.lastUse = c.useSeq
	for c.size > c.capacity {
		c.evictLocked()
	}
	return res
}

// evictLocked drops the least-recently-used stage group whole. The caller
// holds c.mu.
func (c *PlanCache) evictLocked() {
	var victim groupKey
	var oldest *group
	for k, g := range c.groups {
		if oldest == nil || g.lastUse < oldest.lastUse {
			victim, oldest = k, g
		}
	}
	delete(c.groups, victim)
	c.size -= len(oldest.entries)
	c.stats.Evictions += uint64(len(oldest.entries))
}

// freezeResult caps both slice levels of a fresh search result before the
// cache shares it, so a caller's append can never write into the shared
// storage (appends copy instead), and derives the result's candidate list
// — once per search, capacity-frozen likewise. Element writes remain
// physically possible — that is what CheckMutations detects.
func freezeResult(res SearchResult) SearchResult {
	res.Paths = res.Paths[:len(res.Paths):len(res.Paths)]
	for i := range res.Paths {
		p := &res.Paths[i]
		p.Ests = p.Ests[:len(p.Ests):len(p.Ests)]
	}
	res.firsts = firstConfigs(res.Paths, math.MaxInt)
	return res
}

// deepCopyShared clones the storage a frozen result shares with callers:
// its paths, including their Ests, and its candidate list.
func deepCopyShared(res SearchResult) *SearchResult {
	out := make([]Path, len(res.Paths))
	for i, p := range res.Paths {
		out[i] = Path{
			Ests: append([]profile.Estimate(nil), p.Ests...),
			Time: p.Time,
			Cost: p.Cost,
		}
	}
	return &SearchResult{Paths: out, firsts: slices.Clone(res.firsts)}
}

// sharedEqual compares the shared storage of two results element-wise.
func sharedEqual(a, b SearchResult) bool {
	return pathsEqual(a.Paths, b.Paths) && slices.Equal(a.firsts, b.firsts)
}

// pathsEqual compares two path sets element-wise (Estimate is a comparable
// struct, so == is deep here).
func pathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Cost != b[i].Cost || len(a[i].Ests) != len(b[i].Ests) {
			return false
		}
		for j := range a[i].Ests {
			if a[i].Ests[j] != b[i].Ests[j] {
				return false
			}
		}
	}
	return true
}

// GroupSignature builds the signature of one stage-group search: the table
// identity (oracle generation), the function sequence, and the filter
// identity. Use a distinct filterID per admissibility filter (the ablation
// filters of Fig. 12) and a distinct tableID per profile-table generation.
func GroupSignature(tableID string, fns []string, filterID string) string {
	sig := tableID + "|" + filterID
	for _, fn := range fns {
		sig += "/" + fn
	}
	return sig
}
