package core

import (
	"container/list"
	"fmt"
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
	// DefaultCacheSize bounds the number of memoized searches kept.
	// Entries are small (up to K paths of a few estimates each), and the
	// working set of a production-scale run — stage groups × quantized
	// queue depths × target buckets — runs into the thousands; at 512 the
	// LRU churned hot entries and re-searched them (measured on the scale
	// scenario: 4096 nearly halves the cold-search count). Interval hits
	// answer from their own side structure and insert nothing here, so the
	// LRU only ever holds genuinely searched keys.
	DefaultCacheSize = 4096
	// DefaultCacheGranularity is the GSLO bucket width. The controller's
	// scheduling quantum is 2 ms, so targets recur at millisecond scale;
	// 5 ms buckets absorb the jitter of the queue head's elapsed time
	// while staying well inside the 0.9 planning margin.
	DefaultCacheGranularity = 5 * time.Millisecond

	// maxIntervalPerKey bounds the interval-indexed entries per stage
	// group: under a steadily tightening target the newest entries answer
	// everything, so a short list suffices.
	maxIntervalPerKey = 8
	// maxIntervalKeys bounds the number of stage groups with an interval
	// list. Interval entries live outside the exact-key LRU (an interval
	// hit must not churn it), so they need their own bound; the hot stage
	// groups of a run number in the tens, well under this.
	maxIntervalKeys = 256
)

// cacheKey identifies one memoized ESG_1Q search: the stage-group signature
// (function sequence + filter identity + table epoch), the quantized queue
// depth, the GSLO bucket, and the remaining search inputs.
type cacheKey struct {
	sig      string
	gslo     int64 // GSLO floored to a granularity bucket
	maxBatch int   // queue depth quantized to the first stage's batch options
	k        int
	hop      time.Duration
	maxExp   int // expansion cap: a truncated search is not a full one
}

// intervalKey is a cacheKey minus the target bucket: everything that must
// match for two searches to differ only in GSLO. The feasibility-interval
// index is keyed on it.
type intervalKey struct {
	sig      string
	maxBatch int
	k        int
	hop      time.Duration
	maxExp   int
}

// PlanCache memoizes ESG_1Q searches. Repeated searches over the same
// function group at the same (quantized) target return the cached Path set
// instead of re-expanding the configuration graph (§3.3's search is the
// scheduler's hot path; §5.4 bounds it to milliseconds — a hit makes it
// nanoseconds).
//
// Two quantizations make keys recur:
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
// On top of the exact keys, every entry carries a GSLO feasibility
// interval so adjacent buckets hit instead of re-searching: a feasible
// search at bucket g whose slowest kept path takes t_max answers every
// quantized target in [t_max, g] (the K cheapest paths cannot change while
// they all stay feasible), and an infeasible search at g answers every
// tighter target (the drain fallback is GSLO-independent). Under the
// controller's 2 ms re-planning cadence group targets tighten monotonically
// as the queue head ages, which is exactly the pattern this layer absorbs.
// A lookup neither layer answers — including a target below t_max — runs a
// cold search at the quantized target.
//
// Exact-key entries are kept in an LRU list bounded by Capacity. Interval
// answers come from a separate per-stage-group side structure: an interval
// hit never inserts an alias into the exact-key LRU (aliases used to churn
// hot entries out at tight capacities), and an interval entry keeps
// answering even after its originating exact entry is evicted.
//
// All methods are safe for concurrent use. Cold searches run outside the
// cache lock, so two planners that miss the same key at once both search:
// their results are identical and only the first is inserted, but both
// count as misses. Answers therefore never depend on the interleaving of
// concurrent callers; the counters may.
//
// Read-only contract: the returned SearchResult — the Paths slice and
// every Path.Ests in it — is shared between the cache and every past and
// future caller of the same key. Callers must not modify it. Both slice
// levels are capacity-frozen, so an append always copies; writing elements
// in place corrupts other callers' plans. CheckMutations/Integrity exist to
// catch exactly that in tests.
type PlanCache struct {
	mu          sync.Mutex
	capacity    int
	granularity time.Duration
	entries     map[cacheKey]*list.Element
	order       *list.List // front = most recently used
	intervals   map[intervalKey]*intervalList
	useSeq      uint64 // interval-list recency clock
	stats       sched.PlanCacheStats
	checkMut    bool

	// oracleIDs names each profile-table generation ever seen by this
	// cache, so schedulers sharing the cache across different oracles
	// can never collide on a signature. Invalidate bumps idEpoch, which
	// prefixes every ID — old signatures can never resurface.
	oracleIDs map[*profile.Oracle]uint64
	nextID    uint64
	idEpoch   uint64
}

type cacheEntry struct {
	key cacheKey
	res SearchResult
	// snapshot is a deep copy of res.Paths taken at insertion when
	// CheckMutations is armed; Integrity compares against it.
	snapshot []Path
}

// intervalEntry is one self-contained record of the feasibility-interval
// side structure: the frozen result plus the interval it answers. It shares
// the frozen Paths storage with the exact entry inserted alongside it but
// has no pointer into the LRU, so interval hits neither touch nor extend
// the exact-key order. computedAt is the quantized target the result was
// searched at and tmax the slowest kept path of a feasible result; together
// they span the entry's feasibility interval.
type intervalEntry struct {
	res        SearchResult
	computedAt time.Duration
	tmax       time.Duration
	snapshot   []Path
}

// covers reports whether the entry's result answers a search at the
// quantized target q.
func (e *intervalEntry) covers(q time.Duration) bool {
	if q > e.computedAt {
		return false
	}
	return !e.res.Feasible || e.tmax <= q
}

// intervalList holds one stage group's interval entries (oldest first) with
// the recency stamp the key-count bound evicts by.
type intervalList struct {
	entries []intervalEntry
	lastUse uint64
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
		entries:     make(map[cacheKey]*list.Element, capacity),
		order:       list.New(),
		intervals:   make(map[intervalKey]*intervalList),
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
	return "t" + strconv.FormatUint(c.idEpoch, 10) + "." + strconv.FormatUint(id, 10)
}

// Len returns the number of cached searches.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the hit/miss counters. A lookup counts as
// exactly one of Hits (exact key), IntervalHits (a neighboring bucket's
// feasibility interval) or Misses (a cold search).
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
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.snapshot == nil {
			continue
		}
		if !pathsEqual(ent.res.Paths, ent.snapshot) {
			return fmt.Errorf("core: cached plan for %q (gslo %v) was mutated by a caller; plans returned by PlanCache.Search are read-only",
				ent.key.sig, time.Duration(ent.key.gslo))
		}
	}
	for ikey, lst := range c.intervals {
		for i := range lst.entries {
			ent := &lst.entries[i]
			if ent.snapshot == nil {
				continue
			}
			if !pathsEqual(ent.res.Paths, ent.snapshot) {
				return fmt.Errorf("core: interval-cached plan for %q (computed at %v) was mutated by a caller; plans returned by PlanCache.Search are read-only",
					ikey.sig, ent.computedAt)
			}
		}
	}
	return nil
}

// Invalidate drops every cached plan. Callers must invoke it whenever the
// profile tables or admissibility filters behind a signature change, since
// cached paths embed estimates from the old tables.
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*list.Element, c.capacity)
	c.order.Init()
	c.intervals = make(map[intervalKey]*intervalList)
	c.oracleIDs = make(map[*profile.Oracle]uint64)
	c.idEpoch++
	c.stats.Invalidations++
}

// QuantizeGSLO floors d to the cache's bucket width (at least one bucket,
// so a positive target never quantizes to zero and below-bucket targets
// stay infeasible-tight rather than becoming trivially infeasible at 0).
// Non-positive targets all collapse to one bucket: no configuration can
// meet them, so the search degenerates to the same GSLO-independent drain
// paths — without the clamp, an overdue queue would mint a fresh key per
// Plan call and churn the LRU exactly when the scheduler is busiest.
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
// returned paths as read-only (see the type comment).
//
// Resolution order: exact quantized key, then the feasibility-interval
// index (an adjacent bucket whose result provably answers this target),
// then a cold search. All three return the same paths a fresh search at
// the quantized target would.
func (c *PlanCache) Search(in SearchInput, sig string) SearchResult {
	in.GSLO = c.QuantizeGSLO(in.GSLO)
	in.MaxFirstBatch = quantizeFirstBatch(in, in.MaxFirstBatch)
	key := cacheKey{
		sig:      sig,
		gslo:     int64(in.GSLO),
		maxBatch: in.MaxFirstBatch,
		k:        in.K,
		hop:      in.Hop,
		maxExp:   in.MaxExpansions,
	}
	ikey := intervalKey{sig: sig, maxBatch: in.MaxFirstBatch, k: in.K, hop: in.Hop, maxExp: in.MaxExpansions}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res
	}
	if lst, ok := c.intervals[ikey]; ok {
		for i := range lst.entries {
			ent := &lst.entries[i]
			if !ent.covers(in.GSLO) {
				continue
			}
			c.useSeq++
			lst.lastUse = c.useSeq
			c.stats.IntervalHits++
			res := ent.res
			// Answer straight from the side structure: no alias entry is
			// materialized, so the exact-key LRU is untouched and repeat
			// lookups in this bucket keep resolving here.
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
	if _, ok := c.entries[key]; ok {
		return res
	}
	c.insertLocked(key, res)
	// A budget-capped (truncated) search is cached for its exact key —
	// repeats of the same capped input are identical — but kept out of the
	// interval index: its partial result answers no other bucket.
	maxExp := in.MaxExpansions
	if maxExp <= 0 {
		maxExp = defaultMaxExpansions
	}
	if res.Expanded <= maxExp {
		c.indexIntervalLocked(ikey, res, in.GSLO)
	}
	return res
}

// insertLocked adds an exact-key entry to the LRU, evicting from the back
// over capacity. The caller holds c.mu and guarantees key is absent.
func (c *PlanCache) insertLocked(key cacheKey, res SearchResult) {
	ent := &cacheEntry{key: key, res: res}
	if c.checkMut {
		ent.snapshot = deepCopyPaths(res.Paths)
	}
	el := c.order.PushFront(ent)
	c.entries[key] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// indexIntervalLocked records a search at the quantized target computedAt
// in the stage group's interval side structure (oldest entry out past the
// per-key bound; least-recently-used group out past the key-count bound).
// The caller holds c.mu.
func (c *PlanCache) indexIntervalLocked(ikey intervalKey, res SearchResult, computedAt time.Duration) {
	var tmax time.Duration
	if res.Feasible {
		for _, p := range res.Paths {
			tmax = max(tmax, p.Time)
		}
	}
	c.useSeq++
	lst, ok := c.intervals[ikey]
	if !ok {
		if len(c.intervals) >= maxIntervalKeys {
			var victim intervalKey
			first := true
			var oldest uint64
			for k, l := range c.intervals {
				if first || l.lastUse < oldest {
					first, oldest, victim = false, l.lastUse, k
				}
			}
			delete(c.intervals, victim)
		}
		lst = &intervalList{}
		c.intervals[ikey] = lst
	}
	ent := intervalEntry{res: res, computedAt: computedAt, tmax: tmax}
	if c.checkMut {
		ent.snapshot = deepCopyPaths(res.Paths)
	}
	if len(lst.entries) >= maxIntervalPerKey {
		lst.entries = append(lst.entries[:0], lst.entries[1:]...)
	}
	lst.entries = append(lst.entries, ent)
	lst.lastUse = c.useSeq
}

// freezeResult caps both slice levels of a fresh search result before the
// cache shares it, so a caller's append can never write into the shared
// storage (appends copy instead). Element writes remain physically possible
// — that is what CheckMutations detects.
func freezeResult(res SearchResult) SearchResult {
	res.Paths = res.Paths[:len(res.Paths):len(res.Paths)]
	for i := range res.Paths {
		p := &res.Paths[i]
		p.Ests = p.Ests[:len(p.Ests):len(p.Ests)]
	}
	return res
}

// deepCopyPaths clones paths including their Ests storage.
func deepCopyPaths(paths []Path) []Path {
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = Path{
			Ests: append([]profile.Estimate(nil), p.Ests...),
			Time: p.Time,
			Cost: p.Cost,
		}
	}
	return out
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
