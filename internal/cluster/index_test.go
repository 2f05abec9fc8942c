package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// rebuildIndex constructs a fresh fleetIndex from a full fleet scan — the
// ground truth the incrementally maintained index must equal after any
// operation sequence. Warm presence and warmTotal deliberately use the
// lazily-reconciled semantic the live index maintains: they count ring
// entries, expired or not (expiry drops entries only when a query prunes).
// The rebuilt warmNext is the exact earliest ring front, which the live
// lower bound may undercut but never exceed.
func rebuildIndex(c *Cluster) *fleetIndex {
	shapes := make([]units.Resources, len(c.Invokers))
	for i, inv := range c.Invokers {
		shapes[i] = inv.Capacity
	}
	x := newFleetIndex(shapes) // starts fully free
	for _, inv := range c.Invokers {
		if inv.Up() {
			x.capacityChanged(inv.ID, inv.Capacity, inv.Free())
		} else {
			// Crashed invokers leave the capacity index entirely (their
			// ledger is fully free, so the recorded shape is the capacity).
			x.remove(inv.ID, inv.Capacity)
		}
	}
	x.growFns(c.NumFns())
	for fn := FnID(0); int(fn) < c.NumFns(); fn++ {
		for _, inv := range c.Invokers {
			if int(fn) < len(inv.warm) && inv.warm[fn].n > 0 {
				r := &inv.warm[fn]
				x.setBit(x.warmSet, fn, inv.ID)
				x.warmTotal[fn] += r.n
				x.warmNext[fn] = min(x.warmNext[fn], r.front())
			}
			if int(fn) < len(inv.busy) {
				x.busyDelta(fn, int(inv.busy[fn]))
			}
			if int(fn) < len(inv.warming) && inv.warming[fn] > 0 {
				x.warming(fn, inv.ID, true)
			}
		}
	}
	return x
}

// bitsetWord reads word w of a lazily allocated bitset (nil reads as empty).
func bitsetWord(set []uint64, w int) uint64 {
	if set == nil {
		return 0
	}
	return set[w]
}

// checkIndexConsistency asserts the live index equals the rebuilt one on
// every bitset and counter, and that the live warmNext bound holds.
func checkIndexConsistency(t *testing.T, c *Cluster, now time.Duration) {
	t.Helper()
	live, want := c.idx, rebuildIndex(c)
	if live.maxCPU != want.maxCPU || live.maxGPU != want.maxGPU || live.words != want.words {
		t.Fatalf("index shape drifted: (%d,%d,%d) vs rebuilt (%d,%d,%d)",
			live.maxCPU, live.maxGPU, live.words, want.maxCPU, want.maxGPU, want.words)
	}
	for b := range want.counts {
		if live.counts[b] != want.counts[b] {
			t.Fatalf("capacity bucket %d count=%d, rebuilt %d", b, live.counts[b], want.counts[b])
		}
	}
	for i := range want.bits {
		if live.bits[i] != want.bits[i] {
			t.Fatalf("capacity bucket bitset word %d = %x, rebuilt %x", i, live.bits[i], want.bits[i])
		}
	}
	for g := range want.rows {
		if live.rows[g] != want.rows[g] {
			t.Fatalf("GPU row %d count=%d, rebuilt %d", g, live.rows[g], want.rows[g])
		}
	}
	for i := range want.rowBit {
		if live.rowBit[i] != want.rowBit[i] {
			t.Fatalf("GPU row bitset word %d = %x, rebuilt %x", i, live.rowBit[i], want.rowBit[i])
		}
	}
	if len(live.busyTotal) != c.NumFns() || len(want.busyTotal) != c.NumFns() {
		t.Fatalf("per-fn slices sized %d (live) / %d (rebuilt), want %d", len(live.busyTotal), len(want.busyTotal), c.NumFns())
	}
	for fn := 0; fn < c.NumFns(); fn++ {
		if live.busyTotal[fn] != want.busyTotal[fn] {
			t.Fatalf("fn %d busyTotal=%d, rebuilt %d", fn, live.busyTotal[fn], want.busyTotal[fn])
		}
		if live.warmingInv[fn] != want.warmingInv[fn] {
			t.Fatalf("fn %d warmingInv=%d, rebuilt %d", fn, live.warmingInv[fn], want.warmingInv[fn])
		}
		if live.warmTotal[fn] != want.warmTotal[fn] {
			t.Fatalf("fn %d warmTotal=%d, rebuilt %d (now=%v)", fn, live.warmTotal[fn], want.warmTotal[fn], now)
		}
		if live.warmNext[fn] > want.warmNext[fn] {
			t.Fatalf("fn %d warmNext=%v above the earliest ring front %v (now=%v)", fn, live.warmNext[fn], want.warmNext[fn], now)
		}
		for w := 0; w < live.words; w++ {
			if lv, wv := bitsetWord(live.warmSet[fn], w), bitsetWord(want.warmSet[fn], w); lv != wv {
				t.Fatalf("fn %d warmSet word %d = %x, rebuilt %x (now=%v)", fn, w, lv, wv, now)
			}
			if lv, wv := bitsetWord(live.warmingSet[fn], w), bitsetWord(want.warmingSet[fn], w); lv != wv {
				t.Fatalf("fn %d warmingSet word %d = %x, rebuilt %x", fn, w, lv, wv)
			}
		}
	}
}

// drawFuzzFleet draws the node shapes and keep-alive of one seed of the
// randomized index tests. Every third seed (from seed 1) is a wide fleet of
// 65–200 nodes, so each bitset spans two to four words and the per-word
// masks run past word 0; every fourth (from seed 2) uses KeepAlive 0, where
// a container pushed at now has already expired at now.
func drawFuzzFleet(rng *rand.Rand, seed, maxNodes int, maxKeepAlive time.Duration) ([]units.Resources, time.Duration) {
	wide := seed%3 == 1
	nodes := 1 + rng.Intn(maxNodes)
	if wide {
		nodes = 65 + rng.Intn(136)
	}
	keepAlive := time.Duration(1+rng.Intn(int(maxKeepAlive/time.Millisecond))) * time.Millisecond
	if seed%4 == 2 {
		keepAlive = 0
	}
	shapes := make([]units.Resources, nodes)
	for i := range shapes {
		maxGPU := 7
		if wide && i < 64 {
			// Keep word 0 off the largest-free-GPU rows so MostFree and
			// the warm-target picks answer from later words.
			maxGPU = 4
		}
		shapes[i] = units.Resources{CPU: units.VCPU(1 + rng.Intn(16)), GPU: units.VGPU(1 + rng.Intn(maxGPU))}
	}
	return shapes, keepAlive
}

// pickInvoker draws the invoker an operation lands on. On wide fleets half
// the operations land on the eight invokers around ID 64, so pools build
// up on both sides of the first word boundary instead of thinning out over
// the whole fleet.
func pickInvoker(rng *rand.Rand, nodes int) int {
	if nodes <= 64 || rng.Intn(2) == 0 {
		return rng.Intn(nodes)
	}
	return 60 + rng.Intn(min(8, nodes-60))
}

// TestFleetIndexConsistency fuzzes the cluster with random container and
// capacity churn — including heavy expiry pressure and queries that prune
// lazily — and asserts after every burst that rebuilding the index from a
// fleet scan reproduces the incrementally maintained bitsets and counters.
func TestFleetIndexConsistency(t *testing.T) {
	seeds := 10
	bursts := 60
	if testing.Short() {
		seeds, bursts = 3, 20
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x1D8 + int64(seed)))
			shapes, keepAlive := drawFuzzFleet(rng, seed, 10, 8*time.Millisecond)
			nodes := len(shapes)
			c := MustNew(Config{NodeShapes: shapes, KeepAlive: keepAlive, RemoteBandwidthMBps: 80})
			var fns []FnID
			for i := 0; i < 1+rng.Intn(10); i++ {
				fns = append(fns, c.Intern(fmt.Sprintf("fn-%d", i)))
			}
			now := time.Duration(0)
			held := make([][]units.Resources, nodes)
			for burst := 0; burst < bursts; burst++ {
				for op := 0; op < 40; op++ {
					if rng.Intn(2) == 0 {
						now += time.Duration(rng.Intn(3)) * time.Millisecond
					}
					inv := c.Invokers[pickInvoker(rng, nodes)]
					fn := fns[rng.Intn(len(fns))]
					switch rng.Intn(10) {
					case 0, 1:
						inv.AddWarm(fn, now)
					case 2, 3:
						inv.StartTask(fn, now)
					case 4:
						if inv.BusyContainers(fn) > 0 {
							inv.FinishTask(fn, now)
						}
					case 5:
						inv.BeginWarming(fn)
					case 6:
						if inv.Warming(fn) {
							inv.FinishWarming(fn, now)
						}
					case 7:
						r := units.Resources{CPU: units.VCPU(rng.Intn(5)), GPU: units.VGPU(rng.Intn(4))}
						if inv.CanFit(r) {
							if err := inv.Acquire(r, now); err != nil {
								t.Fatal(err)
							}
							held[inv.ID] = append(held[inv.ID], r)
						}
					case 8:
						if n := len(held[inv.ID]); n > 0 {
							inv.Release(held[inv.ID][n-1], now)
							held[inv.ID] = held[inv.ID][:n-1]
						}
					case 9:
						// Lazy-prune queries: these reconcile warm bits.
						inv.HasIdleWarm(fn, now)
						c.WarmInvokers(fn, now)
					}
				}
				checkIndexConsistency(t, c, now)
			}
		})
	}
}
