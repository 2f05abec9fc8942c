package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

func cacheInput(o *profile.Oracle, gslo time.Duration) SearchInput {
	return SearchInput{
		Tables: tablesFor(o, profile.SuperResolution, profile.Segmentation, profile.Classification),
		GSLO:   gslo,
		K:      5,
	}
}

func TestPlanCacheHitEqualsFreshSearch(t *testing.T) {
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	in := cacheInput(o, 526*time.Millisecond)
	sig := GroupSignature("t0", []string{profile.SuperResolution, profile.Segmentation, profile.Classification}, "")

	first := c.Search(in, sig)
	second := c.Search(in, sig)
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats after two identical searches: %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cache hit differs from the miss that filled it")
	}

	// The hit must equal a fresh, uncached search over the quantized
	// input — memoization must not change the planned paths.
	quant := in
	quant.GSLO = c.QuantizeGSLO(in.GSLO)
	fresh := Search(quant)
	if !reflect.DeepEqual(second.Paths, fresh.Paths) || second.Feasible != fresh.Feasible {
		t.Errorf("cached result differs from fresh search at the quantized target")
	}
}

func TestPlanCacheQuantizationIsConservative(t *testing.T) {
	// Targets inside the same bucket share an entry, and the shared plan
	// was computed at the bucket floor — so every returned path meets the
	// tightest target that can map to the bucket.
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	sig := "t0|/sr/seg/cls"

	lo := c.Search(cacheInput(o, 521*time.Millisecond), sig)
	hi := c.Search(cacheInput(o, 524*time.Millisecond), sig)
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("targets in one bucket did not share an entry: %+v", st)
	}
	for _, p := range hi.Paths {
		if p.Time > 521*time.Millisecond {
			t.Errorf("shared plan overshoots the tighter target: %v", p.Time)
		}
	}
	if !reflect.DeepEqual(lo.Paths, hi.Paths) {
		t.Errorf("bucket-sharing searches disagree")
	}

	// A target in a different bucket must not share.
	c.Search(cacheInput(o, 540*time.Millisecond), sig)
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("distinct buckets collided: %+v", st)
	}
}

func TestPlanCacheDepthQuantization(t *testing.T) {
	// SmallSpace batches are {1,2,4}: depths 2 and 3 both clamp to batch 2
	// and must share one entry; depths >= 4 (and unbounded) share another.
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	sig := "t0|/sr/seg/cls"
	mk := func(depth int) SearchInput {
		in := cacheInput(o, 526*time.Millisecond)
		in.MaxFirstBatch = depth
		return in
	}
	c.Search(mk(2), sig)
	c.Search(mk(3), sig)
	c.Search(mk(4), sig)
	c.Search(mk(9), sig)
	c.Search(mk(0), sig) // unbounded
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 3 {
		t.Errorf("depth quantization stats: %+v (want 2 misses, 3 hits)", st)
	}

	// Exactness: the shared entry must equal a fresh search at the raw depth.
	got := c.Search(mk(3), sig)
	want := Search(func() SearchInput {
		in := mk(3)
		in.GSLO = c.QuantizeGSLO(in.GSLO)
		return in
	}())
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Errorf("quantized-depth hit differs from fresh search at depth 3")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// Distinct signatures give one stage group per search, so capacity 3
	// holds three groups and each insert past it drops the least recently
	// used group whole.
	o := smallOracle()
	c := NewPlanCache(3, time.Millisecond)
	in := cacheInput(o, 526*time.Millisecond)
	sig := func(i int) string { return fmt.Sprintf("sig%d", i) }
	for i := 0; i < 5; i++ {
		c.Search(in, sig(i))
	}
	if c.Len() != 3 {
		t.Fatalf("capacity 3 cache holds %d entries", c.Len())
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}

	// 0 and 1 were dropped; 2, 3, 4 remain. Touch 2 (making 3 the least
	// recently used), then insert a new group: 3 must be the victim.
	c.Search(in, sig(2))
	c.Search(in, sig(5))
	c.Search(in, sig(4))
	c.Search(in, sig(2))
	if st := c.Stats(); st.Hits != 3 || st.Misses != 6 {
		t.Errorf("hits = %d misses = %d, want 3 and 6 (LRU order violated)", st.Hits, st.Misses)
	}
	c.Search(in, sig(3))
	if st := c.Stats(); st.Misses != 7 || st.Evictions != 4 {
		t.Errorf("misses = %d evictions = %d, want 7 and 4 (the untouched group survived)", st.Misses, st.Evictions)
	}
	if c.Len() != 3 {
		t.Errorf("capacity 3 cache holds %d entries", c.Len())
	}
}

func TestPlanCacheOverdueTargetsShareOneBucket(t *testing.T) {
	// Non-positive targets (overdue queues) all degenerate to the same
	// GSLO-independent drain paths, so they must share a single entry
	// instead of minting a fresh key per nanosecond-distinct deadline.
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	a := c.Search(cacheInput(o, -17*time.Millisecond), "sig")
	b := c.Search(cacheInput(o, -193*time.Microsecond), "sig")
	z := c.Search(cacheInput(o, 0), "sig")
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("overdue targets did not share one bucket: %+v", st)
	}
	if !reflect.DeepEqual(a.Paths, b.Paths) || !reflect.DeepEqual(a.Paths, z.Paths) {
		t.Errorf("overdue searches disagree")
	}
	if a.Feasible {
		t.Errorf("non-positive target reported feasible")
	}

	// A caller with a different expansion cap must not be served the
	// other cap's (possibly truncated) result.
	in := cacheInput(o, 526*time.Millisecond)
	c.Search(in, "sig")
	in.MaxExpansions = 3
	c.Search(in, "sig")
	if st := c.Stats(); st.Misses != 3 {
		t.Errorf("expansion caps collided: %+v", st)
	}
}

func maxPathTime(paths []Path) time.Duration {
	var max time.Duration
	for _, p := range paths {
		if p.Time > max {
			max = p.Time
		}
	}
	return max
}

// freshAtQuantized runs an uncached search at the cache's quantized target
// — the reference every cache answer must match byte-for-byte.
func freshAtQuantized(c *PlanCache, in SearchInput) SearchResult {
	in.GSLO = c.QuantizeGSLO(in.GSLO)
	return Search(in)
}

func TestPlanCacheIntervalHit(t *testing.T) {
	// A feasible search at bucket g whose slowest kept path takes t_max
	// answers every quantized target in [t_max, g]: tightening the target
	// cannot drop any of the K cheapest paths (they all still fit) nor
	// admit a cheaper one (the feasible set only shrinks).
	o := smallOracle()
	c := NewPlanCache(16, 5*time.Millisecond)
	sig := "t0|/sr/seg/cls"
	loose := cacheInput(o, 5*time.Second)
	first := c.Search(loose, sig)
	if !first.Feasible {
		t.Fatal("loose search infeasible")
	}
	tmax := maxPathTime(first.Paths)
	q := c.QuantizeGSLO(tmax) + 5*time.Millisecond // smallest bucket >= tmax
	if q >= 5*time.Second {
		t.Fatalf("test setup: tmax %v leaves no tighter bucket", tmax)
	}
	second := c.Search(cacheInput(o, q), sig)
	if st := c.Stats(); st.Misses != 1 || st.IntervalHits != 1 {
		t.Fatalf("stats after interval-covered lookup: %+v", st)
	}
	if !reflect.DeepEqual(second.Paths, first.Paths) {
		t.Errorf("interval hit differs from the covering entry")
	}
	fresh := freshAtQuantized(c, cacheInput(o, q))
	if !reflect.DeepEqual(second.Paths, fresh.Paths) || second.Feasible != fresh.Feasible {
		t.Errorf("interval hit differs from a fresh search at the quantized target")
	}
	// Repeat lookups in the covered bucket keep answering through the
	// interval: no alias entry is inserted (aliases used to churn the
	// cache at tight capacity), so the cache still holds one entry.
	c.Search(cacheInput(o, q), sig)
	if st := c.Stats(); st.Hits != 0 || st.IntervalHits != 2 {
		t.Errorf("interval hit materialized an alias: %+v", st)
	}
	if c.Len() != 1 {
		t.Errorf("interval hits grew the cache to %d entries, want 1", c.Len())
	}

	// An infeasible search answers every tighter target: the drain
	// fallback is GSLO-independent.
	inf := c.Search(cacheInput(o, 2*time.Millisecond), sig)
	if inf.Feasible {
		t.Fatal("2ms target reported feasible")
	}
	tighter := c.Search(cacheInput(o, time.Millisecond), sig)
	if st := c.Stats(); st.IntervalHits != 3 {
		t.Errorf("infeasible interval did not cover a tighter target: %+v", st)
	}
	if !reflect.DeepEqual(inf.Paths, tighter.Paths) {
		t.Errorf("infeasible interval hit differs from the covering entry")
	}
}

func TestPlanCacheIntervalHitsDoNotChurnAtCapacity(t *testing.T) {
	// Regression: interval hits used to materialize an exact alias entry
	// per answered bucket, so a scale-shaped working set — tens of stage
	// groups, each probed across many tightening target buckets — minted
	// hundreds of aliases and churned genuinely searched entries out of a
	// 512-entry cache. An interval hit inserts nothing: the counters
	// below pin that a full sweep of covered buckets evicts nothing and
	// leaves the cache holding exactly the searched entries.
	o := smallOracle()
	c := NewPlanCache(512, 5*time.Millisecond)
	const groups = 64
	sig := func(i int) string { return fmt.Sprintf("t0|/group%d", i) }

	loose := cacheInput(o, 5*time.Second)
	first := c.Search(loose, sig(0))
	if !first.Feasible {
		t.Fatal("loose search infeasible")
	}
	tmax := maxPathTime(first.Paths)
	base := c.QuantizeGSLO(tmax)
	const buckets = 8
	if base+buckets*5*time.Millisecond >= 5*time.Second {
		t.Fatalf("test setup: tmax %v leaves too few covered buckets", tmax)
	}
	for i := 1; i < groups; i++ {
		c.Search(loose, sig(i))
	}
	// 64 groups × 8 covered buckets: 512 interval answers. With alias
	// materialization these became 512 extra inserts on top of the 64
	// real entries — past capacity 512, guaranteed churn.
	for i := 0; i < groups; i++ {
		for b := 1; b <= buckets; b++ {
			in := cacheInput(o, base+time.Duration(b)*5*time.Millisecond)
			c.Search(in, sig(i))
		}
	}
	// Every originally searched key must still be resident.
	for i := 0; i < groups; i++ {
		c.Search(loose, sig(i))
	}
	st := c.Stats()
	want := sched.PlanCacheStats{Misses: groups, IntervalHits: groups * buckets, Hits: groups}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if c.Len() != groups {
		t.Errorf("cache holds %d entries, want %d (searched entries only)", c.Len(), groups)
	}
}

func TestPlanCacheTighterThanTmaxMisses(t *testing.T) {
	// A quantized target below the covering entry's t_max cannot be an
	// interval hit — some cached path dies — so it is a cold search, and
	// the result must equal a fresh search.
	o := smallOracle()
	c := NewPlanCache(16, 5*time.Millisecond)
	sig := "t0|/sr/seg/cls"
	first := c.Search(cacheInput(o, 5*time.Second), sig)
	if !first.Feasible {
		t.Fatal("loose search infeasible")
	}
	tmax := maxPathTime(first.Paths)
	q := c.QuantizeGSLO(tmax) - 5*time.Millisecond // strictly below tmax
	if q <= 0 {
		t.Fatalf("test setup: tmax %v too small", tmax)
	}
	got := c.Search(cacheInput(o, q), sig)
	st := c.Stats()
	if st.Misses != 2 || st.IntervalHits != 0 {
		t.Fatalf("stats after tightened lookup: %+v (want 2 misses)", st)
	}
	fresh := freshAtQuantized(c, cacheInput(o, q))
	if !reflect.DeepEqual(got.Paths, fresh.Paths) || got.Feasible != fresh.Feasible {
		t.Errorf("tightened search differs from a fresh search at the quantized target")
	}

	// Tightening a feasible entry into an infeasible target drains. The
	// drain must read the unpruned lists, exactly as a fresh search does:
	// on the 256-config space the K-dominance prune removes the drain's
	// per-job-fastest configurations.
	big := testOracle()
	c = NewPlanCache(16, 5*time.Millisecond)
	if !c.Search(cacheInput(big, 5*time.Second), sig).Feasible {
		t.Fatal("loose search infeasible")
	}
	inf := c.Search(cacheInput(big, 5*time.Millisecond), sig)
	if st := c.Stats(); st.Misses != 2 || st.IntervalHits != 0 {
		t.Fatalf("stats after infeasible lookup: %+v (want 2 misses)", st)
	}
	fresh = freshAtQuantized(c, cacheInput(big, 5*time.Millisecond))
	if inf.Feasible || fresh.Feasible {
		t.Fatal("5ms target reported feasible")
	}
	if !reflect.DeepEqual(inf.Paths, fresh.Paths) {
		t.Errorf("cached drain differs from a fresh search's drain")
	}
	in := cacheInput(big, 5*time.Millisecond)
	unpruned := make([][]profile.Estimate, len(in.Tables))
	for j, tb := range in.Tables {
		unpruned[j] = tb.ByLatency
	}
	if want := drainPaths(unpruned, in.Hop); !reflect.DeepEqual(inf.Paths, want) {
		t.Errorf("cached drain was not built from the unpruned lists")
	}
}

func TestPlanCacheOldestEntryKeepsAnswering(t *testing.T) {
	// A stage group searched at a ladder of ever tighter targets, each
	// below the previous answer's slowest path, holds one entry per rung.
	// However many rungs follow, the first entry keeps answering the
	// targets only its interval covers (a per-group list of the newest
	// eight entries forgot it once a ninth arrived).
	o := testOracle()
	c := NewPlanCache(0, 5*time.Millisecond)
	sig := "t0|/sr/seg/cls"
	in := cacheInput(o, 5*time.Second)
	in.K = 1
	first := c.Search(in, sig)
	if !first.Feasible {
		t.Fatal("loose search infeasible")
	}
	covered := c.QuantizeGSLO(maxPathTime(first.Paths)) + 5*time.Millisecond
	if covered >= in.GSLO {
		t.Fatalf("test setup: t_max %v leaves no covered bucket below %v", maxPathTime(first.Paths), in.GSLO)
	}
	const rungs = 9
	res := first
	for i := 1; i < rungs; i++ {
		in.GSLO = c.QuantizeGSLO(maxPathTime(res.Paths)) - 5*time.Millisecond
		if res = c.Search(in, sig); !res.Feasible {
			t.Fatalf("test setup: rung %d at %v is infeasible", i, in.GSLO)
		}
	}
	if st := c.Stats(); st.Misses != rungs || c.Len() != rungs {
		t.Fatalf("after %d rungs: stats %+v, %d entries (want one cold search and one entry per rung)", rungs, st, c.Len())
	}

	in.GSLO = covered
	got := c.Search(in, sig)
	if st := c.Stats(); st.Misses != rungs || st.IntervalHits != 1 {
		t.Errorf("target only the oldest entry covers: stats %+v, want %d misses and 1 interval hit", st, rungs)
	}
	if fresh := freshAtQuantized(c, in); got.Feasible != fresh.Feasible || !reflect.DeepEqual(got.Paths, fresh.Paths) {
		t.Errorf("oldest entry's answer differs from a fresh search at %v", covered)
	}
}

func TestPlanCacheDescendingTargetsMatchFreshSearch(t *testing.T) {
	// The controller's re-planning pattern: the same stage group searched
	// over and over while the queue head ages and the target tightens.
	// Every answer — exact hit, interval hit or cold — must be
	// byte-identical to an uncached search at the quantized target.
	o := smallOracle()
	names := []string{profile.SuperResolution, profile.Segmentation, profile.Deblur,
		profile.Classification, profile.BackgroundRemoval, profile.DepthRecognition}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(2)
		fns := make([]string, m)
		for i := range fns {
			fns[i] = names[rng.Intn(len(names))]
		}
		in := SearchInput{
			Tables:        tablesFor(o, fns...),
			MaxFirstBatch: rng.Intn(5),
			K:             1 + rng.Intn(5),
			Hop:           time.Duration(rng.Intn(3)) * time.Millisecond,
		}
		c := NewPlanCache(64, 5*time.Millisecond)
		sig := fmt.Sprintf("trial%d", trial)
		g := time.Duration(1200+rng.Intn(1800)) * time.Millisecond
		for step := 0; g > -10*time.Millisecond; step++ {
			in.GSLO = g
			got := c.Search(in, sig)
			want := freshAtQuantized(c, in)
			if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
				st := c.Stats()
				t.Fatalf("trial %d step %d (fns=%v k=%d maxBatch=%d hop=%v gslo=%v, stats %+v): cached result differs from fresh search",
					trial, step, fns, in.K, in.MaxFirstBatch, in.Hop, g, st)
			}
			g -= time.Duration(1+rng.Intn(40)) * time.Millisecond
		}
	}
}

func TestPlanCacheSharedPlansAreReadOnly(t *testing.T) {
	// Cached plans are shared across every hit; both slice levels are
	// capacity-frozen so appends copy, and CheckMutations/Integrity
	// detect callers that assign through the shared storage.
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	c.CheckMutations()
	in := cacheInput(o, 526*time.Millisecond)
	sig := "t0|/sr/seg/cls"

	first := c.Search(in, sig)
	pristine := freshAtQuantized(c, in)

	// Appends must not write into the shared storage: capacities are
	// frozen at both levels, so the append reallocates.
	appended := append(first.Paths, Path{})
	_ = appended
	withEst := append(first.Paths[0].Ests, first.Paths[0].Ests[0])
	_ = withEst
	if err := c.Integrity(); err != nil {
		t.Fatalf("append corrupted the cached plan: %v", err)
	}
	second := c.Search(in, sig)
	if !reflect.DeepEqual(second.Paths, pristine.Paths) {
		t.Fatalf("cached plan changed after caller appends")
	}

	// An element write goes through the shared storage — the documented
	// contract violation Integrity exists to catch.
	second.Paths[0].Ests[0].Time += time.Nanosecond
	if err := c.Integrity(); err == nil {
		t.Fatalf("element write through a shared plan went undetected")
	}
}

func TestPlanCacheSharedCandidatesAreReadOnly(t *testing.T) {
	// The candidate list the cache derives once per search is what ESG
	// returns as sched.Plan.Candidates, to every plan the entry answers:
	// it is capacity-frozen like the paths, and Integrity detects a write
	// through any plan's candidates.
	env, qs := schedEnv(t, workflow.Moderate)
	c := NewPlanCache(0, 0)
	c.CheckMutations()
	e := New(WithPlanCache(c))
	q := qs.Get(0, 0)
	pushJobs(q, env.Apps[0], 0, 4, 0, env.SLOs[0])

	first := e.Plan(env, q, time.Millisecond)
	second := e.Plan(env, q, time.Millisecond)
	if first.Empty() {
		t.Fatal("empty plan")
	}
	if &first.Candidates[0] != &second.Candidates[0] {
		t.Fatalf("an exact hit copied the candidate list instead of sharing the cached one")
	}
	pristine := slices.Clone(first.Candidates)

	_ = append(first.Candidates, profile.Config{})
	if err := c.Integrity(); err != nil {
		t.Fatalf("append corrupted the cached candidates: %v", err)
	}
	if got := e.Plan(env, q, time.Millisecond).Candidates; !reflect.DeepEqual(got, pristine) {
		t.Fatalf("cached candidates changed after a caller's append: %v, want %v", got, pristine)
	}

	second.Candidates[0].Batch++
	if err := c.Integrity(); err == nil {
		t.Fatalf("element write through plan.Candidates went undetected")
	}
}

func TestPlanCacheTableIDsDistinguishOracles(t *testing.T) {
	// Schedulers sharing one cache across different oracles (different
	// profile tables) must get disjoint signatures: a plan computed
	// against one table set is never served for another.
	c := NewPlanCache(8, 5*time.Millisecond)
	small, big := smallOracle(), testOracle()
	a, b := c.TableID(small), c.TableID(big)
	if a == b {
		t.Fatalf("distinct oracles share table ID %q", a)
	}
	if again := c.TableID(small); again != a {
		t.Errorf("table ID not stable: %q then %q", a, again)
	}
}

func TestPlanCacheConcurrentUse(t *testing.T) {
	// The cache must be race-clean and return consistent results under
	// concurrent lookups of overlapping keys (go test -race certifies).
	o := smallOracle()
	c := NewPlanCache(16, 5*time.Millisecond)
	want := c.Search(cacheInput(o, 526*time.Millisecond), "sig")
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got := c.Search(cacheInput(o, 526*time.Millisecond), "sig")
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					errs <- fmt.Sprintf("goroutine %d iter %d: divergent result", g, i)
					return
				}
				c.Search(cacheInput(o, time.Duration(400+10*i)*time.Millisecond), "sig")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// checkIndex verifies the cache's structural invariants: every group is
// sorted by hi with disjoint intervals [lo, hi], and the entry count
// matches Len and stays within capacity.
func checkIndex(t *testing.T, c *PlanCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, g := range c.groups {
		n += len(g.entries)
		for i, e := range g.entries {
			if e.lo > e.hi || (i > 0 && e.lo <= g.entries[i-1].hi) {
				t.Fatalf("group %+v entry %d [%v, %v] out of order or overlapping its predecessor", key, i, e.lo, e.hi)
			}
		}
	}
	if n != c.size || n > c.capacity {
		t.Fatalf("%d entries, size %d, capacity %d", n, c.size, c.capacity)
	}
}

// planCacheLookup encodes one FuzzPlanCache lookup: the signature
// selector and the target in whole milliseconds above −10 ms.
func planCacheLookup(sel uint8, ms int) []byte {
	v := uint16(ms + 10)
	return []byte{sel, byte(v >> 8), byte(v)}
}

func FuzzPlanCache(f *testing.F) {
	// Header: capacity, signature count, then four bytes per signature
	// (stage pick, queue depth, K and hop, expansion cap); three bytes per
	// lookup after it (see planCacheLookup). The seeds replay the
	// controller's descending-target pattern on two and three groups.
	descending := func(header []byte, sigs int, from, step int) []byte {
		data := slices.Clone(header)
		for i := 0; i < 64; i++ {
			data = append(data, planCacheLookup(uint8(i%sigs), from-step*(i/sigs))...)
		}
		return data
	}
	f.Add(descending([]byte{15, 0, 10, 0, 4, 1, 21, 3, 0, 1}, 2, 2600, 80))
	f.Add(descending([]byte{7, 1, 10, 9, 10, 1, 21, 3, 5, 1, 3, 12, 2, 1}, 3, 1800, 70))
	f.Add(descending([]byte{2, 0, 10, 4, 0, 8, 10, 4, 0, 16}, 2, 1500, 2))

	o := smallOracle()
	names := profile.Table3Registry().Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + int(data[0])%16
		sigs := 2 + int(data[1])%2
		data = data[2:]
		if len(data) < 4*sigs {
			return
		}
		inputs := make([]SearchInput, sigs)
		for i := range inputs {
			pick, depth, kh, exp := int(data[0]), int(data[1]), int(data[2]), int(data[3])
			data = data[4:]
			fns := make([]string, 2+pick%2)
			for j, p := 0, pick/2; j < len(fns); j, p = j+1, p/len(names) {
				fns[j] = names[p%len(names)]
			}
			inputs[i] = SearchInput{
				Tables:        tablesFor(o, fns...),
				MaxFirstBatch: depth % 13,
				K:             1 + kh%5,
				Hop:           time.Duration(kh/5%3) * time.Millisecond,
			}
			if exp%8 == 0 {
				inputs[i].MaxExpansions = 1 + exp/8
			}
		}
		c := NewPlanCache(capacity, 5*time.Millisecond)
		for n := 1; n <= 64 && len(data) >= 3; n++ {
			s := int(data[0]) % sigs
			in := inputs[s]
			in.GSLO = time.Duration(int(data[1])<<8|int(data[2]))%3011*time.Millisecond - 10*time.Millisecond
			data = data[3:]

			got := c.Search(in, fmt.Sprintf("sig%d", s))
			want := freshAtQuantized(c, in)
			if got.Feasible != want.Feasible || !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatalf("lookup %d (sig %d, gslo %v, depth %d, K %d, hop %v, cap %d): cached result differs from a fresh search (stats %+v)",
					n, s, in.GSLO, in.MaxFirstBatch, in.K, in.Hop, in.MaxExpansions, c.Stats())
			}
			if st := c.Stats(); st.Lookups() != uint64(n) {
				t.Fatalf("after %d lookups the counters sum to %d: %+v", n, st.Lookups(), st)
			}
			checkIndex(t, c)
		}
	})
}
