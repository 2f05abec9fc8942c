// Package core implements the paper's primary contribution: the ESG
// scheduling algorithm — ESG_1Q configuration search (A*-search with
// dual-blade pruning over the layered configuration graph, §3.3 and
// Appendix B), dominator-based SLO distribution glue, and the ESG scheduler
// with its adaptive per-stage re-planning and locality-aware dispatch.
package core

import (
	"sort"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/units"
)

// DefaultK is the paper's default size of the configuration priority queue
// (§5.4: "The default K is set to 5 in ESG").
const DefaultK = 5

// SearchInput parameterizes one ESG_1Q search over a stage sequence (one
// function group).
type SearchInput struct {
	// Tables holds the profile table of each stage in sequence order.
	Tables []*profile.FunctionTable
	// GSLO is the target latency of the sequence: (SLO - w) × q in
	// Algorithm 1.
	GSLO time.Duration
	// MaxFirstBatch bounds the first stage's batch size by the queue
	// length (<= 0 means unbounded).
	MaxFirstBatch int
	// K is the number of best paths to return (the solution count).
	K int
	// Hop is the optimistic inter-stage transfer estimate added per edge.
	Hop time.Duration
	// Filter, when non-nil, restricts the admissible configurations
	// (used by the GPU-sharing and batching ablations).
	Filter func(profile.Config) bool
	// MaxExpansions caps search work as a safety valve; <= 0 uses a
	// generous default.
	MaxExpansions int
}

// Path is one full configuration path: a config per stage with its summed
// estimated time and per-job resource cost.
type Path struct {
	Ests []profile.Estimate
	Time time.Duration
	Cost units.Money
}

// Configs returns the per-stage configurations of the path.
func (p Path) Configs() []profile.Config {
	out := make([]profile.Config, len(p.Ests))
	for i, e := range p.Ests {
		out[i] = e.Config
	}
	return out
}

// SearchResult is the outcome of one ESG_1Q search.
type SearchResult struct {
	// Paths holds up to K SLO-feasible paths in ascending cost order (the
	// configuration priority queue). When no feasible path exists, Paths
	// holds the single fastest path and Feasible is false (Algorithm 1's
	// setDefaultPaths).
	Paths []Path
	// Feasible reports whether any path met GSLO.
	Feasible bool
	// Expanded counts search-node expansions (diagnostics, §5.3).
	Expanded int
}

// shardThreshold is the arena size at which a search's frontier flips
// from one global binary heap to per-stage shards (see shardFrontier).
// Small searches — the overwhelming majority — never pay for the extra
// indirection; only graph blow-ups cross it. A variable only so tests can
// lower it and exercise the sharded path on tractable inputs.
var shardThreshold = 1 << 15

const (
	defaultMaxExpansions = 4 << 20

	// Retention bounds: a search that outgrows these is answered normally
	// but retained only partially (suspensions) or not at all (arena,
	// completions) — the cold path stays the safety net, and the cache
	// never holds more than a few MB of frontier per retained state.
	// Suspensions keep the retainMaxSuspended cheapest cut children plus
	// a minDropped watermark, so overflowing bounds how far a Resume can
	// refill instead of killing retention.
	retainMaxArena       = 1 << 16
	retainMaxSuspended   = 1 << 10
	retainMaxCompletions = 1 << 10
)

// Searcher runs ESG_1Q searches with reusable scratch: the A* node arena,
// the frontier, the per-stage configuration lists and the suffix bounds all
// live in buffers that survive across searches, so a warm Searcher expands
// the configuration graph without allocating on the steady path. A Searcher
// is not safe for concurrent use; the package-level Search draws Searchers
// from a pool.
type Searcher struct {
	// lists are the per-stage search lists: the admitted lists with every
	// K-dominated configuration pruned (see pruneDominated), copied into
	// pruneBuf. admitted are the unpruned lists — only the drain fallback
	// reads them.
	lists        [][]profile.Estimate
	pruneBuf     []profile.Estimate
	topBuf       []int32
	admitted     [][]profile.Estimate
	inBuf        []bool // admitted[j] views the reusable estBuf scratch
	estBuf       []profile.Estimate
	minTimeAfter []time.Duration
	minCostAfter []units.Money
	arena        []node

	// Vectorized views of lists for the hot expansion loop: per-stage flat
	// arrays of est.Time and est.JobCost with the stage's suffix bound
	// pre-added, so the config-list walk reads two 8-byte-stride arrays
	// (bound compare + one add each) instead of striding whole Estimate
	// structs. Rebuilt by prepareHot after every prepareLists/Resume
	// adoption; identical arithmetic in identical order, so search results
	// are byte-for-byte those of the struct walk.
	timeBuf []time.Duration
	costBuf []units.Money
	stageT  [][]time.Duration
	stageC  [][]units.Money

	// The frontier: a single binary heap (open) until the arena crosses
	// shardThreshold, per-stage heaps (shards) afterwards.
	open     []openItem
	shards   [][]shardItem
	sharded  bool
	shardSeq int32
	fsize    int

	best pathHeap
	rec  retention
}

// NewSearcher returns an empty Searcher; buffers grow on first use and are
// reused afterwards.
func NewSearcher() *Searcher { return &Searcher{} }

var searcherPool = sync.Pool{New: func() any { return NewSearcher() }}

// Search runs ESG_1Q: best-first (A*) search over the layered configuration
// graph with dual-blade pruning — partial paths are cut when their time
// lower bound exceeds GSLO or their cost lower bound cannot improve on the
// K-th best known completion (§3.3).
func Search(in SearchInput) SearchResult {
	s := searcherPool.Get().(*Searcher)
	res := s.Search(in)
	searcherPool.Put(s)
	return res
}

// Search runs one ESG_1Q search on the reusable scratch. The returned
// result does not alias the scratch, so it stays valid across subsequent
// searches.
func (s *Searcher) Search(in SearchInput) SearchResult {
	res, _ := s.search(in, nil, false)
	return res
}

// SearchRetain runs Search and additionally captures the search's end
// state — arena, remaining frontier, cost-blade suspensions and generated
// completions — so a later search over the same inputs with a tighter GSLO
// can Resume instead of starting over. The returned state is nil when the
// search is not retainable (truncated by MaxExpansions, or larger than the
// retention bounds). recycle, when non-nil, donates a retired state's
// buffers — retention then runs allocation-free on the steady path, with
// the old and new arenas swapped instead of re-grown.
func (s *Searcher) SearchRetain(in SearchInput, recycle *RetainedSearch) (SearchResult, *RetainedSearch) {
	return s.search(in, recycle, true)
}

func (s *Searcher) search(in SearchInput, recycle *RetainedSearch, retain bool) (SearchResult, *RetainedSearch) {
	m := len(in.Tables)
	if m == 0 {
		return SearchResult{Feasible: true}, nil
	}
	k := in.K
	if k <= 0 {
		k = DefaultK
	}
	maxExp := in.MaxExpansions
	if maxExp <= 0 {
		maxExp = defaultMaxExpansions
	}

	// Per-stage config lists sorted ascending by latency (Algorithm 1's
	// ConfigLists), with the queue-length bound on the first stage and the
	// ablation filter applied, then K-dominance pruned.
	s.prepareLists(in, m, k)
	s.prepareBounds(in.Hop, m)
	s.prepareHot(m)

	res := SearchResult{}
	s.best.reset(k) // the K cheapest feasible full paths
	s.resetFrontier()
	s.arena = append(s.arena[:0], node{level: -1}) // virtual start node
	s.pushFrontier(s.minCostAfter[0], 0, -1)       // admissible heuristic from the start
	var rec *retention
	if retain {
		s.rec.reset()
		rec = &s.rec
	}
	truncated := s.runLoop(in.GSLO, in.Hop, maxExp, &res, rec)

	res.Paths = s.best.take()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(s.admitted, in.Hop)
	}
	if rec == nil || !rec.ok || truncated {
		return res, nil
	}
	return res, s.extractRetained(in.GSLO, k, in.Hop, maxExp, res, recycle)
}

// runLoop drives A* expansion until the frontier drains, the cost blade
// closes (every remaining node is at least as expensive as the K-th best
// completion), or the expansion budget runs out (truncated=true). When rec
// is non-nil it records the cost-blade suspensions and the generated
// completions for a later Resume; recording never influences the search
// itself, so results are identical with and without it.
func (s *Searcher) runLoop(gslo, hop time.Duration, maxExp int, res *SearchResult, rec *retention) (truncated bool) {
	m := len(s.lists)
	minTimeAfter := s.minTimeAfter[:m+1]
	minCostAfter := s.minCostAfter[:m+1]

	// bestFull/bestWorst mirror s.best's pruning threshold so the inner
	// loop reads locals; they are refreshed after every accepted path.
	bestFull := s.best.full()
	var bestWorst units.Money
	if bestFull {
		bestWorst = s.best.worst()
	}
	// A resumed search carries a second source of work: the suspension
	// heap of children the cost blade cut at the looser target. It merges
	// into the loop lazily in f-order, so the resume touches exactly the
	// cost band the refill needs — never the whole retained state.
	merge := rec != nil && rec.heap
	for {
		hasOpen := s.fsize > 0
		if merge && len(rec.susp) > 0 && (!hasOpen || rec.susp[0].f < s.peekFrontier()) {
			head := rec.susp[0]
			if bestFull && head.f > bestWorst {
				break // the global minimum cannot beat or tie the K-th best
			}
			rec.susp = suspPop(rec.susp)
			lvl := int(head.n.level)
			if head.n.time+minTimeAfter[lvl+1] > gslo {
				continue // time-dead at the tightened target: gone for good
			}
			if lvl == m-1 {
				// A suspended completion: a full path, not a frontier node.
				p := s.buildPath(head.n.parent, &s.lists[m-1][head.n.estIdx], head.n.time, head.n.cost)
				rec.complete(p)
				s.best.add(p)
				if bestFull = s.best.full(); bestFull {
					bestWorst = s.best.worst()
				}
				continue
			}
			s.arena = append(s.arena, head.n)
			s.pushFrontier(head.f, int32(len(s.arena)-1), head.n.level)
			continue
		}
		if !hasOpen {
			break
		}
		it := s.popFrontier()
		if bestFull && it.f > bestWorst {
			// No remaining node can beat or tie the K-th best full path.
			// The bound is strict so paths tying the K-th cost are still
			// generated and resolved by pathLess's content order — that
			// makes the kept set a pure function of the input, which
			// Resume's byte-identity depends on. The popped node still
			// leads somewhere at a tighter target: put it back.
			s.pushFrontier(it.f, it.idx, s.arena[it.idx].level)
			break
		}
		n := s.arena[it.idx]  // copied: the arena may grow below
		j := int(n.level) + 1 // stage to configure next
		if n.time+minTimeAfter[j] > gslo {
			// A stale frontier node from a resumed search: the tightened
			// time blade kills it (a fresh search would never have
			// created it). Dropped permanently. Never fires on a cold
			// search — child creation enforced the same bound.
			continue
		}
		res.Expanded++
		if res.Expanded > maxExp {
			return true
		}
		hopj := time.Duration(0)
		if j > 0 {
			hopj = hop
		}
		// Vectorized walk: listT/listC hold est.Time/est.JobCost with the
		// stage's suffix bound pre-added (see prepareHot), so each pruned
		// candidate costs one add and one compare per blade; t and c are
		// recovered exactly by subtracting the constant back out (integer
		// arithmetic, so (x+s)-s == x).
		listT := s.stageT[j]
		listC := s.stageC[j]
		sufT := minTimeAfter[j+1]
		sufC := minCostAfter[j+1]
		tBase := n.time + hopj
		cBase := n.cost
		for idx := range listT {
			tLow := tBase + listT[idx]
			if tLow > gslo {
				break // blade 1: lists are latency-ascending
			}
			t := tLow - sufT
			rscLow := cBase + listC[idx]
			c := rscLow - sufC
			// Blade 2: cost-based pruning. Algorithm 1 prunes against
			// minRSC, a list of the K best rscFastest bounds; as printed
			// that list can double-count completions of nested prefixes
			// (a prefix and its extension both insert bounds for the same
			// full path), so pruning against it can lose members of the
			// true top-K. We prune against the K-th best *completed* path
			// instead — the same blade, with a sound threshold. The
			// best-first order fills the heap with cheap completions
			// quickly, so the blade engages early.
			if bestFull && rscLow > bestWorst {
				if rec != nil {
					rec.suspend(node{parent: it.idx, estIdx: int32(idx), level: int32(j), time: t, cost: c}, rscLow)
				}
				continue
			}
			if j == m-1 {
				p := s.buildPath(it.idx, &s.lists[j][idx], t, c)
				if rec != nil {
					rec.complete(p)
				}
				s.best.add(p)
				if bestFull = s.best.full(); bestFull {
					bestWorst = s.best.worst()
				}
				continue
			}
			s.arena = append(s.arena, node{
				parent: it.idx, estIdx: int32(idx), level: int32(j), time: t, cost: c,
			})
			s.pushFrontier(rscLow, int32(len(s.arena)-1), int32(j))
			if !s.sharded && len(s.arena) > shardThreshold {
				s.shardFrontier(m)
			}
			if rec != nil && rec.ok && len(s.arena) > retainMaxArena {
				rec.ok = false
			}
		}
	}
	return false
}

// prepareLists fills s.admitted with the per-stage admitted configuration
// lists and s.lists with their K-dominance-pruned search lists. Admitted
// lists of stages without a batch bound or filter reference the table's
// ByLatency slice directly; filtered stages are copied into the reusable
// estBuf and pruned lists into pruneBuf, both pre-grown so that per-stage
// views never move under later appends.
func (s *Searcher) prepareLists(in SearchInput, m, k int) {
	total := 0
	for j := 0; j < m; j++ {
		total += len(in.Tables[j].ByLatency)
	}
	if cap(s.estBuf) < total {
		s.estBuf = make([]profile.Estimate, 0, total)
	}
	if cap(s.pruneBuf) < total {
		s.pruneBuf = make([]profile.Estimate, 0, total)
	}
	buf := s.estBuf[:0]
	pbuf := s.pruneBuf[:0]
	top := s.topBuf
	admitted := s.admitted[:0]
	lists := s.lists[:0]
	inBuf := s.inBuf[:0]
	for j := 0; j < m; j++ {
		maxBatch := 0
		if j == 0 {
			maxBatch = in.MaxFirstBatch
		}
		src := in.Tables[j].ByLatency
		list, owned := src, false
		if maxBatch > 0 || in.Filter != nil {
			start := len(buf)
			for i := range src {
				e := &src[i]
				if maxBatch > 0 && e.Config.Batch > maxBatch {
					continue
				}
				if in.Filter != nil && !in.Filter(e.Config) {
					continue
				}
				buf = append(buf, *e)
			}
			if len(buf) == start {
				list = overConstrainedFallback(src, maxBatch, in.Filter)
			} else {
				list, owned = buf[start:len(buf):len(buf)], true
			}
		}
		admitted = append(admitted, list)
		inBuf = append(inBuf, owned)
		start := len(pbuf)
		pbuf, top = pruneDominated(pbuf, list, k, top)
		lists = append(lists, pbuf[start:len(pbuf):len(pbuf)])
	}
	s.estBuf, s.pruneBuf, s.topBuf = buf, pbuf, top
	s.admitted, s.lists, s.inBuf = admitted, lists, inBuf
}

// pruneDominated appends to dst every configuration of the latency-ascending
// list src that fewer than k others in src beat, in src order. d beats c
// when d.Time <= c.Time and d precedes c in (JobCost, Time, Config) order —
// pathLess's tie order restricted to one stage. The prune is exact: swapping
// c for any beater keeps a path feasible (no slower) and makes it strictly
// pathLess-smaller (Money and Duration sums are exact integers), so a path
// through c has at least k better feasible paths and is never in the top-k.
// It depends on neither GSLO nor the hop, so retained searches resume over
// the same lists. One O(len(src)·k) walk over equal-time groups: c's beaters
// are the configs before it in (JobCost, Time, Config) order among its own
// and all faster groups, so c survives iff it is among the k smallest
// there. top is scratch for the indexes of those k smallest, returned for
// reuse.
func pruneDominated(dst, src []profile.Estimate, k int, top []int32) ([]profile.Estimate, []int32) {
	top = top[:0]
	for lo := 0; lo < len(src); {
		hi := lo + 1
		for hi < len(src) && src[hi].Time == src[lo].Time {
			hi++
		}
		for i := lo; i < hi; i++ {
			// Insert i into the ascending k-smallest index list.
			e := &src[i]
			if len(top) == k && !estLess(e, &src[top[k-1]]) {
				continue
			}
			if len(top) < k {
				top = append(top, 0)
			}
			p := len(top) - 1
			for ; p > 0 && estLess(e, &src[top[p-1]]); p-- {
				top[p] = top[p-1]
			}
			top[p] = int32(i)
		}
		for i := lo; i < hi; i++ {
			if len(top) < k || !estLess(&src[top[k-1]], &src[i]) {
				dst = append(dst, src[i])
			}
		}
		lo = hi
	}
	return dst, top
}

// estLess orders estimates by (JobCost, Time, Config): pathLess's order for
// a single stage.
func estLess(a, b *profile.Estimate) bool {
	if a.JobCost != b.JobCost {
		return a.JobCost < b.JobCost
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	ca, cb := a.Config, b.Config
	if ca.Batch != cb.Batch {
		return ca.Batch < cb.Batch
	}
	if ca.CPU != cb.CPU {
		return ca.CPU < cb.CPU
	}
	return ca.GPU < cb.GPU
}

// prepareHot rebuilds the vectorized per-stage views of s.lists for
// runLoop: flat arrays of est.Time + minTimeAfter[j+1] and est.JobCost +
// minCostAfter[j+1], backed by reusable flat buffers. Must run after
// prepareBounds (it folds the suffix bounds in) and again whenever the
// lists are replaced wholesale (Resume's state adoption).
func (s *Searcher) prepareHot(m int) {
	total := 0
	for j := 0; j < m; j++ {
		total += len(s.lists[j])
	}
	if cap(s.timeBuf) < total {
		s.timeBuf = make([]time.Duration, 0, total)
	}
	if cap(s.costBuf) < total {
		s.costBuf = make([]units.Money, 0, total)
	}
	tb := s.timeBuf[:0]
	cb := s.costBuf[:0]
	st := s.stageT[:0]
	sc := s.stageC[:0]
	minTimeAfter := s.minTimeAfter[:m+1]
	minCostAfter := s.minCostAfter[:m+1]
	for j := 0; j < m; j++ {
		list := s.lists[j]
		sufT := minTimeAfter[j+1]
		sufC := minCostAfter[j+1]
		start := len(tb)
		for i := range list {
			tb = append(tb, list[i].Time+sufT)
			cb = append(cb, list[i].JobCost+sufC)
		}
		st = append(st, tb[start:len(tb):len(tb)])
		sc = append(sc, cb[start:len(cb):len(cb)])
	}
	s.timeBuf, s.costBuf, s.stageT, s.stageC = tb, cb, st, sc
}

// overConstrainedFallback picks the single-config list of a stage whose
// combined constraints admit no configuration. The batch bound is relaxed
// first: the fastest *filter-admissible* config preserves the ablation
// semantics (a no-GPU-sharing run is never handed a sharing config) at the
// price of over-batching, which the dispatcher clamps. When the filter
// itself excludes every config there is no admissible choice at all;
// planning must stay total, so it degrades to the fastest batch-admissible
// config — the fastest overall if even that is empty — instead of
// panicking. All three engines (Search, SearchLevelwise, BruteForceSearch)
// share this fallback so the oracle and the optimized engines agree on
// over-constrained inputs.
func overConstrainedFallback(src []profile.Estimate, maxBatch int, filter func(profile.Config) bool) []profile.Estimate {
	if filter != nil {
		for i := range src { // src is latency-ascending: first match is fastest
			if filter(src[i].Config) {
				return src[i : i+1 : i+1]
			}
		}
	}
	if maxBatch > 0 {
		for i := range src {
			if src[i].Config.Batch <= maxBatch {
				return src[i : i+1 : i+1]
			}
		}
	}
	return src[:1:1]
}

// prepareBounds fills the suffix bounds for the two blades:
//
//	minTimeAfter[j] — fastest possible completion of stages >= j,
//	minCostAfter[j] — cheapest possible completion of stages >= j.
func (s *Searcher) prepareBounds(hop time.Duration, m int) {
	if cap(s.minTimeAfter) < m+1 {
		s.minTimeAfter = make([]time.Duration, m+1)
		s.minCostAfter = make([]units.Money, m+1)
	}
	minTimeAfter := s.minTimeAfter[:m+1]
	minCostAfter := s.minCostAfter[:m+1]
	minTimeAfter[m], minCostAfter[m] = 0, 0
	for j := m - 1; j >= 0; j-- {
		mt, mc := listBounds(s.lists[j])
		h := time.Duration(0)
		if j > 0 {
			h = hop
		}
		minTimeAfter[j] = minTimeAfter[j+1] + mt + h
		minCostAfter[j] = minCostAfter[j+1] + mc
	}
}

// node is a partial path covering stages 0..level, stored in the arena and
// linked to its parent by arena index.
type node struct {
	parent int32
	estIdx int32
	level  int32
	time   time.Duration
	cost   units.Money
}

// openItem is one frontier entry: the arena index of a node with its cost
// lower bound f (cost + admissible remaining-cost heuristic).
type openItem struct {
	f   units.Money
	idx int32
}

// shardItem is a frontier entry of the sharded frontier. seq is the global
// insertion sequence: the cross-shard merge pops by (f, seq), so the pop
// order — and with it every tie-dependent outcome — is deterministic.
type shardItem struct {
	f   units.Money
	seq int32
	idx int32
}

func shardLess(a, b shardItem) bool {
	return a.f < b.f || (a.f == b.f && a.seq < b.seq)
}

// resetFrontier empties the frontier and returns it to single-heap mode.
func (s *Searcher) resetFrontier() {
	s.open = s.open[:0]
	if s.sharded {
		for i := range s.shards {
			s.shards[i] = s.shards[i][:0]
		}
		s.sharded = false
	}
	s.shardSeq = 0
	s.fsize = 0
}

// pushFrontier inserts a node (by arena index) with cost lower bound f.
// level is the node's level; the sharded frontier buckets by the stage the
// node expands next (level+1).
func (s *Searcher) pushFrontier(f units.Money, idx, level int32) {
	s.fsize++
	if !s.sharded {
		s.pushOpen(f, idx)
		return
	}
	s.pushShard(int(level)+1, shardItem{f: f, seq: s.shardSeq, idx: idx})
	s.shardSeq++
}

// peekFrontier returns the minimum f in the frontier without removing it.
// Only valid while the frontier is non-empty.
func (s *Searcher) peekFrontier() units.Money {
	if !s.sharded {
		return s.open[0].f
	}
	found := false
	var f units.Money
	for _, sh := range s.shards {
		if len(sh) == 0 {
			continue
		}
		if !found || sh[0].f < f {
			found, f = true, sh[0].f
		}
	}
	return f
}

// popFrontier removes and returns the frontier minimum: the heap root in
// single-heap mode, the (f, seq)-least shard head in sharded mode.
func (s *Searcher) popFrontier() openItem {
	s.fsize--
	if !s.sharded {
		return s.popOpen()
	}
	bestShard := -1
	var bestItem shardItem
	for si := range s.shards {
		sh := s.shards[si]
		if len(sh) == 0 {
			continue
		}
		if bestShard < 0 || shardLess(sh[0], bestItem) {
			bestShard, bestItem = si, sh[0]
		}
	}
	s.popShard(bestShard)
	return openItem{f: bestItem.f, idx: bestItem.idx}
}

// shardFrontier flips the frontier from one global heap to per-stage
// shards: one (f, seq)-ordered heap per node level. Blow-up searches push
// and pop against heaps a stage-fraction of the global frontier's size (and
// sift correspondingly shallower); the cross-shard merge is a scan over at
// most GroupSize heads. Redistribution preserves the heap array order, so
// the switch is deterministic for a given input.
func (s *Searcher) shardFrontier(m int) {
	if cap(s.shards) < m {
		s.shards = make([][]shardItem, m)
	}
	s.shards = s.shards[:m]
	for i := range s.shards {
		s.shards[i] = s.shards[i][:0]
	}
	s.sharded = true
	s.shardSeq = 0
	for _, it := range s.open {
		lvl := int(s.arena[it.idx].level) + 1
		s.pushShard(lvl, shardItem{f: it.f, seq: s.shardSeq, idx: it.idx})
		s.shardSeq++
	}
	s.open = s.open[:0]
}

// pushOpen and popOpen maintain the single-heap frontier as a binary
// min-heap on f with the exact sift order of container/heap, so the
// expansion sequence — and with it every tie-dependent search outcome — is
// identical to the boxed *node heap this replaced.
func (s *Searcher) pushOpen(f units.Money, idx int32) {
	h := append(s.open, openItem{f: f, idx: idx})
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.open = h
}

func (s *Searcher) popOpen() openItem {
	h := s.open
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift the swapped-in root down over h[:n] (container/heap's down).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.open = h[:n]
	return it
}

func (s *Searcher) pushShard(lvl int, it shardItem) {
	h := append(s.shards[lvl], it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !shardLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.shards[lvl] = h
}

func (s *Searcher) popShard(lvl int) {
	h := s.shards[lvl]
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && shardLess(h[j2], h[j1]) {
			j = j2
		}
		if !shardLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.shards[lvl] = h[:n]
}

// buildPath materializes a completed path by walking parent links through
// the arena. Only accepted completions allocate (their Ests escape into the
// result).
func (s *Searcher) buildPath(parent int32, last *profile.Estimate, t time.Duration, c units.Money) Path {
	m := len(s.lists)
	ests := make([]profile.Estimate, m)
	ests[m-1] = *last
	for cur := parent; cur >= 0; cur = s.arena[cur].parent {
		n := &s.arena[cur]
		if n.level < 0 {
			break
		}
		ests[n.level] = s.lists[n.level][n.estIdx]
	}
	return Path{Ests: ests, Time: t, Cost: c}
}

// suspendedItem is a child the cost blade cut: a fully-formed node that was
// never added to the arena, kept with its cost lower bound so a Resume at a
// tighter target can reconsider it.
type suspendedItem struct {
	n node
	f units.Money
}

// suspPush and suspPop maintain a suspended-children min-heap on f, so a
// Resume merges exactly the prefix that can compete with the K-th best
// instead of scanning every suspension.
func suspPush(h []suspendedItem, it suspendedItem) []suspendedItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func suspPop(h []suspendedItem) []suspendedItem {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n]
}

// suspMaxPush and suspMaxSiftDown maintain the cold-search recording
// buffer as a bounded MAX-heap on f, keeping the retainMaxSuspended
// cheapest suspensions: once full, an incoming child cheaper than the root
// replaces it (O(log n), and only the cheapest ~n of all prunes ever
// trigger it), anything else is dropped after one compare.
func suspMaxPush(h []suspendedItem, it suspendedItem) []suspendedItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[i].f < h[j].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func suspMaxSiftDown(h []suspendedItem) {
	n := len(h)
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j1].f < h[j2].f {
			j = j2
		}
		if !(h[i].f < h[j].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// retention records what a search must keep beyond its result for Resume:
// the cheapest children the cost blade cut and every completion generated
// (including the ones the K-bounded heap rejected or displaced). Cut
// children beyond the buffer only move the minDropped watermark — the
// smallest cost lower bound ever dropped — which bounds how deep a Resume
// may refill (its K-th best must stay strictly below the watermark, or no
// guarantee exists that a dropped child would not have made the top-K).
// Completion overruns flip ok to false: the search still answers, it just
// is not retained. In heap mode (a resumed search writing straight into
// its state's storage) suspensions keep the min-heap invariant; in append
// mode (a cold search recording into scratch) they form a bounded max-heap
// and are re-heapified to a min-heap at capture.
type retention struct {
	ok         bool
	heap       bool
	dropped    bool
	minDropped units.Money
	susp       []suspendedItem
	comps      []Path
}

func (r *retention) reset() {
	r.ok = true
	r.heap = false
	r.dropped = false
	r.minDropped = 0
	r.susp = r.susp[:0]
	r.comps = r.comps[:0]
}

func (r *retention) drop(f units.Money) {
	if !r.dropped || f < r.minDropped {
		r.dropped, r.minDropped = true, f
	}
}

func (r *retention) suspend(n node, f units.Money) {
	if !r.ok {
		return
	}
	if r.heap {
		// Resumed search: the state's min-heap. A full buffer drops the
		// incoming child (watermark update only) — overflow here is
		// rare.
		if len(r.susp) >= retainMaxSuspended {
			r.drop(f)
			return
		}
		r.susp = suspPush(r.susp, suspendedItem{n: n, f: f})
		return
	}
	// Cold search: bounded max-heap of the cheapest cut children.
	if len(r.susp) < retainMaxSuspended {
		r.susp = suspMaxPush(r.susp, suspendedItem{n: n, f: f})
		return
	}
	if !(f < r.susp[0].f) {
		r.drop(f) // not among the cheapest: one compare and gone
		return
	}
	r.drop(r.susp[0].f)
	r.susp[0] = suspendedItem{n: n, f: f}
	suspMaxSiftDown(r.susp)
}

func (r *retention) complete(p Path) {
	if !r.ok {
		return
	}
	if len(r.comps) >= retainMaxCompletions {
		r.ok = false
		return
	}
	r.comps = append(r.comps, p)
}

// RetainedSearch is the frozen end state of one ESG_1Q search: the node
// arena, the remaining frontier, the children the cost blade suspended, the
// generated completions, and owned copies of the per-stage configuration
// lists, pruned and admitted. A later search over the same inputs with an
// equal or tighter GSLO can Resume from here instead of re-expanding from
// the virtual root: the time blade only ever cuts more as GSLO tightens
// (whatever it cut stays cut), so the retained frontier plus the recorded
// completions cover every path a fresh, tighter search could reach.
type RetainedSearch struct {
	gslo time.Duration // target the retained result was computed at
	tmax time.Duration // slowest kept path (feasible results only)
	res  SearchResult

	k      int
	hop    time.Duration
	maxExp int

	// lists are the pruned search lists the arena indexes; admitted are the
	// unpruned lists a resume that turns infeasible drains from.
	lists        [][]profile.Estimate
	admitted     [][]profile.Estimate
	estBuf       []profile.Estimate
	minTimeAfter []time.Duration
	minCostAfter []units.Money

	arena []node
	open  []openItem
	susp  []suspendedItem
	comps []Path

	// dropped/minDropped carry the suspension watermark (see retention):
	// a resume whose refilled K-th best does not stay strictly below
	// minDropped cannot prove completeness and falls back to a cold
	// search.
	dropped    bool
	minDropped units.Money

	dead bool
}

// Dead reports whether the state can no longer answer searches (a resumed
// continuation was truncated or outgrew the retention bounds) and must be
// dropped by its owner.
func (st *RetainedSearch) Dead() bool { return st.dead }

// GSLO returns the target the retained result was computed at.
func (st *RetainedSearch) GSLO() time.Duration { return st.gslo }

// extractRetained captures the just-finished search into a RetainedSearch.
// The arena moves out of the scratch; the frontier, suspensions and
// completions are copied; the pruned lists and the filtered admitted lists
// are copied out of the scratch buffers, which the next search overwrites.
// recycle, when non-nil, is a retired state whose buffers (including its
// arena, which the scratch takes in exchange) are reused — nothing a
// recycled state owns is ever referenced by cached results, so the reuse
// cannot corrupt a served plan.
func (s *Searcher) extractRetained(gslo time.Duration, k int, hop time.Duration, maxExp int, res SearchResult, recycle *RetainedSearch) *RetainedSearch {
	m := len(s.lists)
	st := recycle
	if st == nil {
		st = &RetainedSearch{}
	}
	st.k, st.hop, st.maxExp, st.dead = k, hop, maxExp, false
	if cap(st.lists) < m {
		st.lists = make([][]profile.Estimate, 0, m)
		st.admitted = make([][]profile.Estimate, 0, m)
	}
	need := 0
	for j := range s.lists {
		need += len(s.lists[j])
		if s.inBuf[j] {
			need += len(s.admitted[j])
		}
	}
	if cap(st.estBuf) < need {
		st.estBuf = make([]profile.Estimate, 0, need)
	}
	buf := st.estBuf[:0]
	lists, admitted := st.lists[:0], st.admitted[:0]
	for j := range s.lists {
		start := len(buf)
		buf = append(buf, s.lists[j]...)
		lists = append(lists, buf[start:len(buf):len(buf)])
		if !s.inBuf[j] {
			admitted = append(admitted, s.admitted[j]) // stable table storage, shared read-only
			continue
		}
		start = len(buf)
		buf = append(buf, s.admitted[j]...)
		admitted = append(admitted, buf[start:len(buf):len(buf)])
	}
	st.estBuf, st.lists, st.admitted = buf, lists, admitted
	st.minTimeAfter = append(st.minTimeAfter[:0], s.minTimeAfter[:m+1]...)
	st.minCostAfter = append(st.minCostAfter[:0], s.minCostAfter[:m+1]...)
	retired := st.arena
	st.arena = s.arena
	s.arena = retired[:0]
	s.captureState(st, gslo, res)
	return st
}

// captureState moves the cold search's end state (frontier, suspensions,
// completions) from the scratch into st — header swaps, no copying; the
// scratch inherits st's retired storage. The retained open frontier and
// suspension list must both be valid f-heaps — Resume adopts the frontier
// as is and merges activations from the suspension heap — so the appended
// suspensions (and a sharded frontier's linearization) are heapified once
// here. The arena is the callers' business: extractRetained swaps the
// finished arena for st's retired one.
func (s *Searcher) captureState(st *RetainedSearch, gslo time.Duration, res SearchResult) {
	st.stamp(gslo, res)
	if s.sharded {
		lin := st.open[:0]
		for _, sh := range s.shards {
			for _, it := range sh {
				lin = append(lin, openItem{f: it.f, idx: it.idx})
			}
		}
		st.open = lin
		openHeapify(st.open)
	} else {
		st.open, s.open = s.open, st.open[:0]
	}
	// The recording max-heap becomes the retained min-heap in place.
	st.susp, s.rec.susp = s.rec.susp, st.susp[:0]
	suspHeapify(st.susp)
	st.comps, s.rec.comps = s.rec.comps, st.comps[:0]
	st.dropped, st.minDropped = s.rec.dropped, s.rec.minDropped
}

// heapify establishes the binary min-heap invariant in place (Floyd's
// O(n) build, container/heap's sift order). Only capture paths use it —
// the in-loop sifts (pushOpen/popOpen, pushShard/popShard, suspPush/
// suspPop) stay hand-specialized so the hottest operations never pay an
// indirect comparator call.
func heapify[T any](h []T, less func(a, b T) bool) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			j1 := 2*j + 1
			if j1 >= n {
				break
			}
			k := j1
			if j2 := j1 + 1; j2 < n && less(h[j2], h[j1]) {
				k = j2
			}
			if !less(h[k], h[j]) {
				break
			}
			h[j], h[k] = h[k], h[j]
			j = k
		}
	}
}

func openHeapify(h []openItem) {
	heapify(h, func(a, b openItem) bool { return a.f < b.f })
}

func suspHeapify(h []suspendedItem) {
	heapify(h, func(a, b suspendedItem) bool { return a.f < b.f })
}

// stamp records the result a retained state answers for.
func (st *RetainedSearch) stamp(gslo time.Duration, res SearchResult) {
	st.gslo = gslo
	st.res = res
	st.tmax = 0
	if res.Feasible {
		for _, p := range res.Paths {
			if p.Time > st.tmax {
				st.tmax = p.Time
			}
		}
	}
}

// Resume answers a search over st's retained inputs at a target at or below
// the retained one. Three regimes, cheapest first:
//
//   - an infeasible retained result answers every tighter target (the drain
//     fallback is GSLO-independent, and shrinking the target cannot create
//     feasibility);
//   - a feasible result whose slowest path meets the new target answers it
//     unchanged (the K cheapest paths under the old target all survive, and
//     nothing cheaper can appear when the feasible set only shrinks);
//   - otherwise the retained completions are re-pruned and the A* loop
//     continues from the retained frontier — never from the virtual root.
//
// computedAt is the target the returned result was actually searched at
// (st's original target for the first two regimes). ok=false means the
// target is looser than the retained one, or the continuation was truncated
// — the caller must fall back to a cold search. The state updates in place
// to answer the new target; check Dead afterwards.
func (s *Searcher) Resume(st *RetainedSearch, gslo time.Duration) (res SearchResult, computedAt time.Duration, ok bool) {
	if st.dead || gslo > st.gslo {
		return SearchResult{}, 0, false
	}
	if !st.res.Feasible || st.tmax <= gslo {
		return st.res, st.gslo, true
	}

	// Adopt the retained state as the working scratch — headers move, the
	// contents stay put. The scratch's own buffers are parked and
	// restored on every exit so neither side loses its storage.
	s.lists = append(s.lists[:0], st.lists...)
	s.minTimeAfter = append(s.minTimeAfter[:0], st.minTimeAfter...)
	s.minCostAfter = append(s.minCostAfter[:0], st.minCostAfter...)
	s.prepareHot(len(s.lists))
	s.arena = st.arena
	scratchOpen, scratchSusp, scratchComps := s.open, s.rec.susp, s.rec.comps
	restoreScratch := func() {
		s.open = scratchOpen[:0]
		s.rec.susp = scratchSusp[:0]
		s.rec.comps = scratchComps[:0]
		s.rec.heap = false
	}

	// Re-prune the completions in place and replay them into the K-heap;
	// the kept top-K under pathLess's total order does not depend on the
	// replay order.
	kept := st.comps[:0]
	for _, p := range st.comps {
		if p.Time <= gslo {
			kept = append(kept, p)
		}
	}
	s.best.reset(st.k)
	for i := range kept {
		s.best.add(kept[i])
	}

	// Adopt the retained frontier and suspension heap as they are — no
	// rebuild. The loop drops time-dead frontier nodes lazily when popped
	// and merges suspensions in f-order, so a resume pays for the cost
	// band its refill explores, never for the retained state's size. New
	// suspensions and completions record straight into the state's
	// storage.
	s.resetFrontier()
	s.open = st.open
	s.fsize = len(s.open)
	s.rec.ok = true
	s.rec.heap = true
	s.rec.dropped = st.dropped
	s.rec.minDropped = st.minDropped
	s.rec.susp = st.susp
	s.rec.comps = kept
	st.open, st.susp, st.comps = nil, nil, nil

	truncated := s.runLoop(gslo, st.hop, st.maxExp, &res, &s.rec)
	res.Paths = s.best.take()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(st.admitted, st.hop)
	}
	// Completeness: with suspensions dropped past the watermark, the
	// refill is only proven exhaustive while the K-th kept cost stays
	// strictly below it — a dropped child with a smaller bound could
	// otherwise have completed into the top-K.
	incomplete := s.rec.dropped &&
		!(res.Feasible && len(res.Paths) == st.k && res.Paths[len(res.Paths)-1].Cost < s.rec.minDropped)
	if truncated || incomplete {
		// Not equivalent to a fresh search; the caller must search cold.
		// The state was consumed by the attempt and cannot answer again.
		st.dead = true
		st.arena, s.arena = s.arena, nil
		restoreScratch()
		return SearchResult{}, 0, false
	}
	// Hand the working buffers back to the state; the sharded frontier —
	// only reachable when the arena blew past the shard threshold during
	// this resume — linearizes into the adopted open storage (an
	// ascending array is a valid min-heap for the next adoption).
	st.arena, s.arena = s.arena, nil
	if s.sharded {
		lin := s.open[:0]
		for _, sh := range s.shards {
			for _, it := range sh {
				lin = append(lin, openItem{f: it.f, idx: it.idx})
			}
		}
		openHeapify(lin)
		st.open = lin
	} else {
		st.open = s.open
	}
	st.susp = s.rec.susp
	st.comps = s.rec.comps
	st.dropped, st.minDropped = s.rec.dropped, s.rec.minDropped
	dead := !s.rec.ok || len(st.arena) > retainMaxArena
	restoreScratch()
	if dead {
		st.dead = true
		return res, gslo, true
	}
	st.stamp(gslo, res)
	return res, gslo, true
}

// drainPaths builds the default paths used when no configuration meets
// GSLO (Algorithm 1's setDefaultPaths): per-stage configurations that
// minimize per-job completion time (task time divided by batch size). When
// the budget is already blown, head-of-queue jobs have lost their SLO
// anyway; what matters is draining the backlog at maximum per-job
// throughput so the jobs behind them still make theirs. Several variants
// with decreasing resource footprints are returned so the dispatcher can
// still place a task on a loaded cluster.
func drainPaths(lists [][]profile.Estimate, hop time.Duration) []Path {
	caps := []units.Resources{
		{CPU: 8, GPU: 7},
		{CPU: 4, GPU: 4},
		{CPU: 2, GPU: 2},
		{CPU: 1, GPU: 1},
	}
	var out []Path
	seen := make(map[profile.Config]bool)
	for _, rc := range caps {
		p, ok := drainPathCapped(lists, hop, rc)
		if !ok {
			continue
		}
		first := p.Ests[0].Config
		if seen[first] {
			continue
		}
		seen[first] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		p, _ := drainPathCapped(lists, hop, units.Resources{})
		out = append(out, p)
	}
	return out
}

// drainPathCapped builds one drain path restricted to configs fitting the
// resource cap (zero components mean unrestricted). ok is false when a
// stage has no config under the cap.
func drainPathCapped(lists [][]profile.Estimate, hop time.Duration, rc units.Resources) (Path, bool) {
	var p Path
	for j, list := range lists {
		var best *profile.Estimate
		var bestPerJob float64
		for i := range list {
			cand := &list[i]
			if rc.GPU > 0 && cand.Config.GPU > rc.GPU {
				continue
			}
			if rc.CPU > 0 && cand.Config.CPU > rc.CPU {
				continue
			}
			perJob := float64(cand.Time) / float64(cand.Config.Batch)
			if best == nil || perJob < bestPerJob ||
				(perJob == bestPerJob && cand.JobCost < best.JobCost) {
				best = cand
				bestPerJob = perJob
			}
		}
		if best == nil {
			return Path{}, false
		}
		p.Ests = append(p.Ests, *best)
		p.Time += best.Time
		if j > 0 {
			p.Time += hop
		}
		p.Cost += best.JobCost
	}
	return p, true
}

func filteredList(t *profile.FunctionTable, maxBatch int, filter func(profile.Config) bool) []profile.Estimate {
	src := t.LatencyAscending(maxBatch)
	if filter == nil {
		return src
	}
	out := make([]profile.Estimate, 0, len(src))
	for _, e := range src {
		if filter(e.Config) {
			out = append(out, e)
		}
	}
	return out
}

func listBounds(list []profile.Estimate) (minTime time.Duration, minCost units.Money) {
	minTime = list[0].Time
	minCost = list[0].JobCost
	for _, e := range list[1:] {
		if e.Time < minTime {
			minTime = e.Time
		}
		if e.JobCost < minCost {
			minCost = e.JobCost
		}
	}
	return minTime, minCost
}

// pathLess is the total order the configuration priority queue keeps: cost
// first (the paper's ranking), then time, then the per-stage configurations
// lexicographically. Breaking cost ties by content instead of arrival order
// makes the kept top-K a pure function of the candidate set — the property
// that lets a resumed search, which generates candidates in a different
// order, return byte-identical results to a fresh one.
func pathLess(a, b *Path) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	for i := range a.Ests {
		ca, cb := a.Ests[i].Config, b.Ests[i].Config
		if ca.Batch != cb.Batch {
			return ca.Batch < cb.Batch
		}
		if ca.CPU != cb.CPU {
			return ca.CPU < cb.CPU
		}
		if ca.GPU != cb.GPU {
			return ca.GPU < cb.GPU
		}
	}
	return false
}

// pathHeap keeps the K least paths under pathLess.
type pathHeap struct {
	k     int
	paths []Path
}

func newPathHeap(k int) *pathHeap { return &pathHeap{k: k} }

func (p *pathHeap) full() bool { return len(p.paths) == p.k }

// worst returns the cost of the K-th kept path — the cost blade's
// threshold. Pruning compares strictly against it, so cost-tied candidates
// always reach the heap and lose (or win) on pathLess's content order.
func (p *pathHeap) worst() units.Money { return p.paths[len(p.paths)-1].Cost }

func (p *pathHeap) add(path Path) {
	if p.full() && !pathLess(&path, &p.paths[len(p.paths)-1]) {
		return
	}
	i := sort.Search(len(p.paths), func(i int) bool { return !pathLess(&p.paths[i], &path) })
	p.paths = append(p.paths, Path{})
	copy(p.paths[i+1:], p.paths[i:])
	p.paths[i] = path
	if len(p.paths) > p.k {
		p.paths = p.paths[:p.k]
	}
}

func (p *pathHeap) sorted() []Path { return p.paths }

// reset prepares the heap for reuse with a new K, keeping its storage.
func (p *pathHeap) reset(k int) {
	p.k = k
	p.paths = p.paths[:0]
}

// take returns a copy of the kept paths (nil when empty), detaching them
// from the reusable storage.
func (p *pathHeap) take() []Path {
	if len(p.paths) == 0 {
		return nil
	}
	out := make([]Path, len(p.paths))
	copy(out, p.paths)
	return out
}

// BruteForceSearch exhaustively enumerates every configuration path and
// returns the K cheapest feasible ones. It exists for §5.3's overhead
// comparison and as a correctness oracle for Search in tests.
func BruteForceSearch(in SearchInput) SearchResult {
	m := len(in.Tables)
	if m == 0 {
		return SearchResult{Feasible: true}
	}
	k := in.K
	if k <= 0 {
		k = DefaultK
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
	best := newPathHeap(k)
	res := SearchResult{}
	choice := make([]int, m)
	var rec func(j int, t time.Duration, c units.Money)
	rec = func(j int, t time.Duration, c units.Money) {
		if j == m {
			res.Expanded++
			if t <= in.GSLO {
				ests := make([]profile.Estimate, m)
				for i, idx := range choice {
					ests[i] = lists[i][idx]
				}
				best.add(Path{Ests: ests, Time: t, Cost: c})
			}
			return
		}
		hop := time.Duration(0)
		if j > 0 {
			hop = in.Hop
		}
		for idx := range lists[j] {
			choice[j] = idx
			e := &lists[j][idx]
			rec(j+1, t+hop+e.Time, c+e.JobCost)
		}
	}
	rec(0, 0, 0)
	res.Paths = best.sorted()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(lists, in.Hop)
	}
	return res
}
