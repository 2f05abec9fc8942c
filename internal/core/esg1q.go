// Package core implements the paper's primary contribution: the ESG
// scheduling algorithm — ESG_1Q configuration search (A*-search with
// dual-blade pruning over the layered configuration graph, §3.3 and
// Appendix B), dominator-based SLO distribution glue, and the ESG scheduler
// with its adaptive per-stage re-planning and locality-aware dispatch.
package core

import (
	"slices"
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

	// firsts is the configuration priority queue firstConfigs derives
	// from Paths. A PlanCache fills it once per search, and it is then
	// shared and read-only like Paths; Search leaves it nil.
	firsts []profile.Config
}

// firstConfigs returns the distinct first-stage configurations of paths in
// path order, each batch size clamped to maxBatch first — the
// configuration priority queue ESG hands the dispatcher. There are at most
// K paths, so a linear scan dedupes. The list is capacity-frozen: an
// append by a caller copies instead of writing into shared storage.
func firstConfigs(paths []Path, maxBatch int) []profile.Config {
	var out []profile.Config
	for _, p := range paths {
		cfg := p.Ests[0].Config
		cfg.Batch = min(cfg.Batch, maxBatch)
		if !slices.Contains(out, cfg) {
			out = append(out, cfg)
		}
	}
	return slices.Clip(out)
}

const defaultMaxExpansions = 4 << 20

// Searcher runs ESG_1Q searches with reusable scratch: the A* node arena,
// the frontier, the per-stage configuration lists and the bounds all live
// in buffers that survive across searches, so a warm Searcher expands the
// configuration graph without allocating on the steady path. A Searcher
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
	estBuf       []profile.Estimate
	minTimeAfter []time.Duration
	minCostAfter []units.Money
	// lastCost[i] is the lowest JobCost among the last stage's first i+1
	// search-list configs: the prefix minimum the cost-to-go reads.
	lastCost []units.Money
	arena    []node

	// open is the frontier: a binary min-heap on f (see pushOpen).
	open []openItem

	best pathHeap
}

// NewSearcher returns an empty Searcher; buffers grow on first use and are
// reused afterwards.
func NewSearcher() *Searcher { return &Searcher{} }

var searcherPool = sync.Pool{New: func() any { return NewSearcher() }}

// Search runs ESG_1Q: best-first (A*) search over the layered configuration
// graph with dual-blade pruning — partial paths are cut when their time
// lower bound exceeds GSLO or their cost lower bound cannot improve on the
// K-th best known completion (§3.3). The cost lower bound is time-aware:
// the last stage is priced at its cheapest config that still fits what the
// target leaves it (see costToGo).
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

	// Per-stage config lists sorted ascending by latency (Algorithm 1's
	// ConfigLists), with the queue-length bound on the first stage and the
	// ablation filter applied, then K-dominance pruned.
	s.prepareLists(in, m, k)
	s.prepareBounds(in.Hop, m)

	res := SearchResult{}
	s.best.reset(k) // the K cheapest feasible full paths
	s.open = s.open[:0]
	s.arena = append(s.arena[:0], node{level: -1}) // virtual start node
	s.pushOpen(s.minCostAfter[0], 0)               // admissible heuristic from the start
	s.runLoop(in.GSLO, in.Hop, maxExp, &res)

	res.Paths = s.best.take()
	res.Feasible = len(res.Paths) > 0
	if !res.Feasible {
		res.Paths = drainPaths(s.admitted, in.Hop)
	}
	return res
}

// runLoop drives A* expansion until the frontier drains, the cost blade
// closes (every remaining node is at least as expensive as the K-th best
// completion), or the expansion budget runs out (res.Expanded then exceeds
// maxExp, which is how callers tell a truncated search).
func (s *Searcher) runLoop(gslo, hop time.Duration, maxExp int, res *SearchResult) {
	m := len(s.lists)
	minTimeAfter := s.minTimeAfter[:m+1]

	// bestFull/bestWorst mirror the pruning threshold of s.best, which
	// Search has just emptied, so the inner loop reads locals; they are
	// refreshed after every accepted path.
	var bestFull bool
	var bestWorst units.Money
	for len(s.open) > 0 {
		it := s.popOpen()
		if bestFull && it.f > bestWorst {
			// No remaining node can beat or tie the K-th best full path.
			// The bound is strict so paths tying the K-th cost are still
			// generated and resolved by pathLess's content order — that
			// makes the kept set a pure function of the input, whatever
			// order the frontier pops in.
			break
		}
		n := s.arena[it.idx]  // copied: the arena may grow below
		j := int(n.level) + 1 // stage to configure next
		if n.time+minTimeAfter[j] > gslo {
			// Time blade at pop time. Child creation below enforces the
			// same bound, so only the virtual root can fail it: when even
			// the fastest path misses GSLO the search expands nothing and
			// Expanded, which §5.3's table prints, stays 0.
			continue
		}
		res.Expanded++
		if res.Expanded > maxExp {
			return
		}
		hopj := time.Duration(0)
		if j > 0 {
			hopj = hop
		}
		list := s.lists[j]
		tBase := n.time + hopj
		// room is the longest stage j may take with every later stage and
		// hop at its fastest.
		room := gslo - tBase - minTimeAfter[j+1]
		done := j == m-1
		var h costToGo
		if !done {
			h = s.costToGo(j+1, gslo)
		}
		for idx := range list {
			e := &list[idx]
			if e.Time > room {
				break // blade 1: lists are latency-ascending
			}
			t := tBase + e.Time
			c := n.cost + e.JobCost
			f := c // a completion's exact cost
			if !done {
				f += h.at(t)
			}
			// Blade 2: cost-based pruning. Algorithm 1 prunes against
			// minRSC, a list of the K best rscFastest bounds; as printed
			// that list can double-count completions of nested prefixes
			// (a prefix and its extension both insert bounds for the same
			// full path), so pruning against it can lose members of the
			// true top-K. We prune against the K-th best *completed* path
			// instead — the same blade, with a sound threshold. A partial
			// path's f prices what is left of it by the time it has left
			// (costToGo), so a prefix that leaves room only for dear, fast
			// completions is cut before it is pushed. The best-first order
			// fills the heap with cheap completions quickly, so the blade
			// engages early.
			if bestFull && f > bestWorst {
				continue
			}
			if done {
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
}

// costToGo is A*'s cost-to-go for the children of one expansion: a lower
// bound on what completing stages i..m-1 (0 < i < m) costs a partial path
// that has used time t of GSLO. Each middle stage costs at least its
// cheapest config. The last stage may take at most what GSLO leaves once
// the hops and the middle stages run at their fastest, so it costs at
// least the cheapest of its configs that fit: a prefix minimum over its
// latency-ascending list (lastCost). The bound is admissible, exact when
// one stage remains, and never below the time-agnostic minCostAfter[i].
type costToGo struct {
	last []profile.Estimate // the last stage's search list
	cost []units.Money      // lastCost over last
	mid  units.Money        // the middle stages' cheapest configs
	// limit minus a path's time is the longest the last stage may take.
	limit time.Duration
	p     int // index of the slowest last-stage config not yet ruled out
}

// costToGo prepares the cost-to-go of stages i..m-1 under target gslo.
func (s *Searcher) costToGo(i int, gslo time.Duration) costToGo {
	last := s.lists[len(s.lists)-1]
	cost := s.lastCost[:len(last)]
	return costToGo{
		last:  last,
		cost:  cost,
		mid:   s.minCostAfter[i] - cost[len(cost)-1],
		limit: gslo - (s.minTimeAfter[i] - last[0].Time),
		p:     len(last) - 1,
	}
}

// at returns the cost-to-go of a path that has used time t. t must pass the
// time blade (t + minTimeAfter[i] <= GSLO), so the fastest last-stage config
// always fits, and successive calls must not lower t: the pointer into the
// last stage's list then only moves down, and runLoop, which walks a
// node's children in latency order, pays O(len(last)) per expansion.
func (h *costToGo) at(t time.Duration) units.Money {
	for h.last[h.p].Time > h.limit-t {
		h.p--
	}
	return h.mid + h.cost[h.p]
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
	for j := 0; j < m; j++ {
		maxBatch := 0
		if j == 0 {
			maxBatch = in.MaxFirstBatch
		}
		src := in.Tables[j].ByLatency
		list := src
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
				list = buf[start:len(buf):len(buf)]
			}
		}
		admitted = append(admitted, list)
		start := len(pbuf)
		pbuf, top = pruneDominated(pbuf, list, k, top)
		lists = append(lists, pbuf[start:len(pbuf):len(pbuf)])
	}
	s.estBuf, s.pruneBuf, s.topBuf = buf, pbuf, top
	s.admitted, s.lists = admitted, lists
}

// pruneDominated appends to dst every configuration of the latency-ascending
// list src that fewer than k others in src beat, in src order. d beats c
// when d.Time <= c.Time and d precedes c in (JobCost, Time, Config) order —
// pathLess's tie order restricted to one stage. The prune is exact: swapping
// c for any beater keeps a path feasible (no slower) and makes it strictly
// pathLess-smaller (Money and Duration sums are exact integers), so a path
// through c has at least k better feasible paths and is never in the top-k.
// It depends on neither GSLO nor the hop. One O(len(src)·k) walk over
// equal-time groups: c's beaters are the configs before it in (JobCost,
// Time, Config) order among its own and all faster groups, so c survives
// iff it is among the k smallest there. top is scratch for the indexes of
// those k smallest, returned for reuse.
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

// prepareBounds fills the bounds for the two blades:
//
//	minTimeAfter[j] — fastest possible completion of stages >= j,
//	minCostAfter[j] — cheapest possible completion of stages >= j,
//	lastCost[i]     — cheapest of the last stage's i+1 fastest configs.
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
	last := s.lists[m-1]
	cost := s.lastCost[:0]
	low := last[0].JobCost
	for i := range last {
		low = min(low, last[i].JobCost)
		cost = append(cost, low)
	}
	s.lastCost = cost
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

// pushOpen and popOpen maintain the frontier as a binary min-heap on f
// with the exact sift order of container/heap, so the expansion sequence —
// and with it every tie-dependent search outcome — is identical to the
// boxed *node heap this replaced.
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
// that lets the A* search, the level-wise sweep and the exhaustive oracle,
// which generate candidates in different orders, return byte-identical
// results.
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

// admits reports whether path would enter the kept top K.
func (p *pathHeap) admits(path *Path) bool {
	n := len(p.paths)
	return n < p.k || pathLess(path, &p.paths[n-1])
}

func (p *pathHeap) add(path Path) {
	if !p.admits(&path) {
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
	// scratch holds a feasible leaf's estimates while the heap decides;
	// only a path that enters the top K gets its own copy.
	scratch := make([]profile.Estimate, m)
	var rec func(j int, t time.Duration, c units.Money)
	rec = func(j int, t time.Duration, c units.Money) {
		if j == m {
			res.Expanded++
			if t > in.GSLO || (best.full() && c > best.worst()) {
				return
			}
			for i, idx := range choice {
				scratch[i] = lists[i][idx]
			}
			path := Path{Ests: scratch, Time: t, Cost: c}
			if best.admits(&path) {
				path.Ests = slices.Clone(scratch)
				best.add(path)
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
