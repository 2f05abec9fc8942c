package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
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

func TestPlanCacheInvalidate(t *testing.T) {
	o := smallOracle()
	c := NewPlanCache(8, 5*time.Millisecond)
	in := cacheInput(o, 526*time.Millisecond)
	c.Search(in, "sig")
	c.Search(in, "sig")
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after Invalidate", c.Len())
	}
	c.Search(in, "sig")
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Invalidations != 1 {
		t.Errorf("stats after invalidate: %+v", st)
	}

	// A changed signature (new tables / new filter) must also miss.
	c.Search(in, "sig2")
	if st := c.Stats(); st.Misses != 3 {
		t.Errorf("signature change did not miss: %+v", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// Distinct signatures per entry keep the feasibility-interval layer out
	// of the way: this test is about LRU mechanics.
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

	// 0 and 1 were evicted; 2, 3, 4 remain. Touch 2 (making 3 the LRU),
	// then insert a new key: 3 must be the victim.
	c.Search(in, sig(2))
	c.Search(in, sig(5))
	c.Search(in, sig(4))
	c.Search(in, sig(2))
	st := c.Stats()
	if wantHits := uint64(3); st.Hits != wantHits {
		t.Errorf("hits = %d, want %d (LRU order violated)", st.Hits, wantHits)
	}
	// The evicted victim is gone from the LRU, but the stage group's
	// interval side structure is decoupled from it and survives: the
	// lookup must not be an exact hit, and must be answered by the
	// surviving interval entry without searching at all.
	c.Search(in, sig(3))
	if st := c.Stats(); st.Misses != 6 || st.IntervalHits != 1 {
		t.Errorf("misses = %d intervalHits = %d, want 6 and 1 (evicted victim re-answered by its interval entry)",
			st.Misses, st.IntervalHits)
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
	// Repeat lookups in the covered bucket keep answering from the side
	// structure: no exact alias is materialized (aliases used to churn
	// the LRU at tight capacity), so the exact-key LRU stays untouched.
	c.Search(cacheInput(o, q), sig)
	if st := c.Stats(); st.Hits != 0 || st.IntervalHits != 2 {
		t.Errorf("interval hit materialized an alias: %+v", st)
	}
	if c.Len() != 1 {
		t.Errorf("interval hits grew the exact-key LRU to %d entries, want 1", c.Len())
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
	// hundreds of aliases and churned genuinely searched keys out of a
	// 512-entry LRU. Interval answers now live in their own side
	// structure: the counters below pin that a full sweep of covered
	// buckets evicts nothing and leaves the LRU holding exactly the
	// searched keys.
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
	// materialization these became 512 extra LRU inserts on top of the 64
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
		t.Errorf("LRU holds %d entries, want %d (searched keys only)", c.Len(), groups)
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
	c.Invalidate()
	if after := c.TableID(small); after == a {
		t.Errorf("table ID %q survived Invalidate", a)
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
