package core

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/profile"
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
	// maxResumeSlots bounds the retained search states (each pins an
	// arena and frontier, see RetainedSearch). The hot stage groups of a
	// run number in the tens.
	maxResumeSlots = 32
)

// CacheStats are the observability counters of a PlanCache. A lookup
// resolves as exactly one of Hits, IntervalHits, Resumes or Misses, from
// cheapest to most expensive.
type CacheStats struct {
	// Hits are exact-key lookups (same stage group, same quantized queue
	// depth and target bucket).
	Hits uint64
	// IntervalHits are lookups answered by a neighboring bucket's entry
	// through its GSLO feasibility interval (see Search).
	IntervalHits uint64
	// Resumes are lookups answered by re-pruning and continuing a
	// retained search instead of re-expanding from the virtual root.
	Resumes uint64
	// Misses are cold searches from the virtual root.
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// Lookups returns the total number of Search calls observed.
func (s CacheStats) Lookups() uint64 {
	return s.Hits + s.IntervalHits + s.Resumes + s.Misses
}

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
// index and the retained-search slots are keyed on it.
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
// tighter target (the drain fallback is GSLO-independent). Targets below
// t_max resume the retained search — re-pruning the previous completions
// and continuing from the retained frontier — rather than starting from
// the virtual root (see Searcher.Resume). Under the controller's 2 ms
// re-planning cadence group targets tighten monotonically as the queue
// head ages, which is exactly the pattern these two layers absorb.
//
// Exact-key entries are kept in an LRU list bounded by Capacity. Interval
// answers come from a separate per-stage-group side structure: an interval
// hit never inserts an alias into the exact-key LRU (aliases used to churn
// hot entries out at tight capacities), and an interval entry keeps
// answering even after its originating exact entry is evicted. All methods
// are safe for concurrent use.
//
// Read-only contract: the returned SearchResult — the Paths slice and
// every Path.Ests in it — is shared between the cache, its retained search
// states and every past and future caller of the same key. Callers must
// not modify it. Both slice levels are capacity-frozen, so an append
// always copies; writing elements in place corrupts other callers' plans.
// CheckMutations/Integrity exist to catch exactly that in tests.
type PlanCache struct {
	mu          sync.Mutex
	capacity    int
	granularity time.Duration
	entries     map[cacheKey]*list.Element
	order       *list.List // front = most recently used
	intervals   map[intervalKey]*intervalList
	useSeq      uint64 // interval-list recency clock
	stats       CacheStats
	checkMut    bool

	// searchMu guards the resume-slot table (the map and the recency
	// clock), never a search itself: each slot carries its own mutex, so
	// concurrent planners working disjoint stage groups search in
	// parallel while same-group searches serialize in arrival order and
	// keep their retained state.
	searchMu sync.Mutex
	resumes  map[intervalKey]*resumeSlot
	seq      uint64
	// searchers recycles search scratch across cold searches; retained
	// states (resumeSlot.st) own their storage independently of the
	// searcher that produced them.
	searchers sync.Pool

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
	// computedAt is the quantized target the result was searched at and
	// tmax the slowest kept path of a feasible result; together they span
	// the entry's feasibility interval.
	computedAt time.Duration
	tmax       time.Duration
	// snapshot is a deep copy of res.Paths taken at insertion when
	// CheckMutations is armed; Integrity compares against it.
	snapshot []Path
}

// intervalEntry is one self-contained record of the feasibility-interval
// side structure: the frozen result plus the interval it answers. It shares
// the frozen Paths storage with the exact entry inserted alongside it but
// has no pointer into the LRU, so interval hits neither touch nor extend
// the exact-key order.
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

type resumeSlot struct {
	// mu serializes searches of one stage group: the holder may resume,
	// replace or retain st. Acquired with c.searchMu already released, so
	// disjoint stage groups never serialize on each other.
	mu      sync.Mutex
	st      *RetainedSearch
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
	c := &PlanCache{
		capacity:    capacity,
		granularity: granularity,
		entries:     make(map[cacheKey]*list.Element, capacity),
		order:       list.New(),
		intervals:   make(map[intervalKey]*intervalList),
		resumes:     make(map[intervalKey]*resumeSlot),
		oracleIDs:   make(map[*profile.Oracle]uint64),
	}
	c.searchers.New = func() any { return NewSearcher() }
	return c
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

// Stats returns a snapshot of the hit/miss counters.
func (c *PlanCache) Stats() CacheStats {
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

// Invalidate drops every cached plan and retained search. Callers must
// invoke it whenever the profile tables or admissibility filters behind a
// signature change, since cached paths embed estimates from the old tables.
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	c.entries = make(map[cacheKey]*list.Element, c.capacity)
	c.order.Init()
	c.intervals = make(map[intervalKey]*intervalList)
	c.oracleIDs = make(map[*profile.Oracle]uint64)
	c.idEpoch++
	c.stats.Invalidations++
	c.mu.Unlock()

	c.searchMu.Lock()
	c.resumes = make(map[intervalKey]*resumeSlot)
	c.searchMu.Unlock()
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
// then a Resume of the retained search for the stage group, then a cold
// search. All four return the same paths a fresh search at the quantized
// target would.
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
	// insert is benign (identical inputs give identical results).
	res, computedAt, resumed := c.searchCold(in, ikey)

	c.mu.Lock()
	if resumed {
		c.stats.Resumes++
	} else {
		c.stats.Misses++
	}
	if _, ok := c.entries[key]; !ok {
		tmax := time.Duration(0)
		if res.Feasible {
			for _, p := range res.Paths {
				if p.Time > tmax {
					tmax = p.Time
				}
			}
		}
		c.insertLocked(key, res, computedAt, tmax)
		// A budget-capped (truncated) search is cached for its exact key
		// — repeats of the same capped input are identical — but kept out
		// of the interval index: its partial result answers no other
		// bucket (mirroring SearchRetain's refusal to retain truncated
		// searches for the resume layer).
		maxExp := in.MaxExpansions
		if maxExp <= 0 {
			maxExp = defaultMaxExpansions
		}
		if res.Expanded <= maxExp {
			c.indexIntervalLocked(ikey, res, computedAt, tmax)
		}
	}
	c.mu.Unlock()
	return res
}

// searchCold answers a lookup that missed both cache layers: by resuming
// the stage group's retained search when only GSLO tightened, or by a
// retained cold search. computedAt is the target the result was actually
// searched at (a Resume may answer from a looser bucket, see
// Searcher.Resume).
//
// Concurrency: the stage group's resume slot is locked for the duration of
// the search, so same-group searches serialize in arrival order and each
// sees its predecessor's retained state — exactly the sequential behavior.
// Disjoint stage groups hold disjoint slot locks and search in parallel on
// pooled searchers.
func (c *PlanCache) searchCold(in SearchInput, ikey intervalKey) (res SearchResult, computedAt time.Duration, resumed bool) {
	slot := c.lockSlot(ikey)
	defer slot.mu.Unlock()
	// Freeze while the slot is held: the retained state shares the
	// result's storage, and later callers of the group read it only under
	// the slot lock.
	defer func() { res = freezeResult(res) }()

	s := c.searchers.Get().(*Searcher)
	defer c.searchers.Put(s)

	var recycle *RetainedSearch
	if slot.st != nil {
		res, at, ok2 := s.Resume(slot.st, in.GSLO)
		if slot.st.Dead() {
			// The state can no longer answer; its buffers still can.
			recycle = slot.st
			slot.st = nil
			if ok2 {
				return res, at, true
			}
		} else if ok2 {
			return res, at, true
		} else {
			// Looser target than the retained one: the cold search below
			// replaces the state, reusing its storage.
			recycle = slot.st
			slot.st = nil
		}
	}
	res, st := s.SearchRetain(in, recycle)
	slot.st = st
	return res, in.GSLO, false
}

// lockSlot returns the stage group's resume slot with its mutex held,
// creating it (and evicting the least-recently-used slot past the bound)
// on first use. The table lock is released before the slot lock is
// acquired, so a slow search never blocks other groups' slot lookups; a
// concurrently evicted slot keeps working detached, merely losing its
// retained state for future lookups.
func (c *PlanCache) lockSlot(ikey intervalKey) *resumeSlot {
	c.searchMu.Lock()
	c.seq++
	slot, ok := c.resumes[ikey]
	if !ok {
		if len(c.resumes) >= maxResumeSlots {
			var victim intervalKey
			first := true
			var oldest uint64
			for k, s := range c.resumes {
				if first || s.lastUse < oldest {
					first, oldest, victim = false, s.lastUse, k
				}
			}
			delete(c.resumes, victim)
		}
		slot = &resumeSlot{}
		c.resumes[ikey] = slot
	}
	slot.lastUse = c.seq
	c.searchMu.Unlock()
	slot.mu.Lock()
	return slot
}

// insertLocked adds an exact-key entry to the LRU, evicting from the back
// over capacity. The caller holds c.mu and guarantees key is absent.
func (c *PlanCache) insertLocked(key cacheKey, res SearchResult, computedAt, tmax time.Duration) {
	ent := &cacheEntry{key: key, res: res, computedAt: computedAt, tmax: tmax}
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

// indexIntervalLocked records a search in the stage group's interval side
// structure (oldest entry out past the per-key bound; least-recently-used
// group out past the key-count bound). The caller holds c.mu.
func (c *PlanCache) indexIntervalLocked(ikey intervalKey, res SearchResult, computedAt, tmax time.Duration) {
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

// freezeResult caps both slice levels of the result so a caller's append
// can never write into the shared storage (appends copy instead). Element
// writes remain physically possible — that is what CheckMutations detects.
// An already-frozen path is not written again: a result a retained state
// answers with is shared, and concurrent readers may hold it.
func freezeResult(res SearchResult) SearchResult {
	res.Paths = res.Paths[:len(res.Paths):len(res.Paths)]
	for i := range res.Paths {
		if p := &res.Paths[i]; cap(p.Ests) != len(p.Ests) {
			p.Ests = p.Ests[:len(p.Ests):len(p.Ests)]
		}
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
