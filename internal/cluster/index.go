package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// fleetIndex holds the incrementally maintained placement indexes of a
// cluster, replacing the O(nodes) linear scans of the placement policies
// with O(capacity-shape) bucket walks and O(1) counter reads:
//
//   - a free-capacity bucket grid: bucket (g, c) is the bitset of invokers
//     whose free capacity is exactly (c vCPU, g vGPU), plus per-free-GPU
//     row unions — MostFree, best-fit and warm-target selection walk the
//     grid in the exact preference order of the scans they replaced, so
//     tie-breaking (and with it the simulation) is unchanged;
//   - per-function warm bitsets: the invokers whose expiry ring for the
//     function is non-empty (possibly holding expired entries — membership
//     is reconciled lazily when the ring is pruned);
//   - per-function fleet-wide totals — busy containers, idle-warm ring
//     entries, invokers with an in-flight pre-warm (counted and as a
//     bitset) — plus a lower bound on the earliest idle-warm deadline,
//     which tells Cluster.pruneWarmFleet when nothing can have expired.
//
// All per-function state is indexed by interned FnID — flat slices grown by
// growFns as the cluster's interner assigns handles — so the hot counters
// are plain loads, never map probes. Invokers push every ledger mutation
// into the index, so reads never scan the fleet.
type fleetIndex struct {
	maxCPU int
	maxGPU int
	words  int // bitset words per bucket: ceil(nodes / 64)

	counts []int    // per-bucket invoker counts, len (maxGPU+1)*(maxCPU+1)
	bits   []uint64 // per-bucket bitsets, counts-aligned, words each
	rows   []int    // per-free-GPU row counts, len maxGPU+1
	rowBit []uint64 // per-row union bitsets, words each

	warmSet    [][]uint64 // FnID -> bitset of invokers with a non-empty ring (nil until first push)
	warmTotal  []int      // FnID -> idle-warm ring entries across the fleet
	busyTotal  []int      // FnID -> total busy containers
	warmingInv []int      // FnID -> invokers with warming[fn] > 0
	warmingSet [][]uint64 // FnID -> bitset of those invokers (nil until first warm-up)
	// warmNext[fn] is at most the earliest idle-warm deadline of fn
	// anywhere in the fleet (math.MaxInt64 while none is known). A push
	// lowers it; pops, prunes and crash flushes only remove deadlines, so
	// they leave it valid; only Cluster.pruneWarmFleet raises it, to the
	// exact earliest deadline after a fleet walk. While now < warmNext[fn]
	// no ring of fn holds an expired entry.
	warmNext []time.Duration
}

func newFleetIndex(shapes []units.Resources) *fleetIndex {
	x := &fleetIndex{}
	for _, s := range shapes {
		if int(s.CPU) > x.maxCPU {
			x.maxCPU = int(s.CPU)
		}
		if int(s.GPU) > x.maxGPU {
			x.maxGPU = int(s.GPU)
		}
	}
	x.words = (len(shapes) + 63) / 64
	nb := (x.maxGPU + 1) * (x.maxCPU + 1)
	x.counts = make([]int, nb)
	x.bits = make([]uint64, nb*x.words)
	x.rows = make([]int, x.maxGPU+1)
	x.rowBit = make([]uint64, (x.maxGPU+1)*x.words)
	for id, s := range shapes {
		x.add(id, s) // a fresh invoker is fully free
	}
	return x
}

func (x *fleetIndex) bucket(free units.Resources) int {
	return int(free.GPU)*(x.maxCPU+1) + int(free.CPU)
}

func (x *fleetIndex) add(id int, free units.Resources) {
	b := x.bucket(free)
	x.counts[b]++
	x.bits[b*x.words+id/64] |= 1 << (id % 64)
	x.rows[free.GPU]++
	x.rowBit[int(free.GPU)*x.words+id/64] |= 1 << (id % 64)
}

func (x *fleetIndex) remove(id int, free units.Resources) {
	b := x.bucket(free)
	x.counts[b]--
	x.bits[b*x.words+id/64] &^= 1 << (id % 64)
	x.rows[free.GPU]--
	x.rowBit[int(free.GPU)*x.words+id/64] &^= 1 << (id % 64)
}

// capacityChanged moves an invoker between buckets when its free capacity
// changes.
func (x *fleetIndex) capacityChanged(id int, oldFree, newFree units.Resources) {
	if oldFree == newFree {
		return
	}
	x.remove(id, oldFree)
	x.add(id, newFree)
}

// lowestID returns the smallest invoker ID in the bitset at word offset
// off, or -1 when empty.
func (x *fleetIndex) lowestID(set []uint64, off int) int {
	for w := 0; w < x.words; w++ {
		if v := set[off+w]; v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// mostFree returns the invoker with the largest free GPU capacity, ties
// broken by free CPU, then lowest ID — the preference order of the linear
// MostFree scan.
func (x *fleetIndex) mostFree() int {
	for g := x.maxGPU; g >= 0; g-- {
		if x.rows[g] == 0 {
			continue
		}
		for c := x.maxCPU; c >= 0; c-- {
			b := g*(x.maxCPU+1) + c
			if x.counts[b] == 0 {
				continue
			}
			return x.lowestID(x.bits, b*x.words)
		}
	}
	return -1
}

// bestFit returns the fitting invoker that minimizes leftover GPU, then
// leftover CPU, then ID — the fragmentation-minimizing best-fit order.
// It returns -1 when no invoker fits res.
func (x *fleetIndex) bestFit(res units.Resources) int {
	if res.CPU < 0 || res.GPU < 0 {
		return -1
	}
	for g := int(res.GPU); g <= x.maxGPU; g++ {
		if x.rows[g] == 0 {
			continue
		}
		for c := int(res.CPU); c <= x.maxCPU; c++ {
			b := g*(x.maxCPU+1) + c
			if x.counts[b] == 0 {
				continue
			}
			return x.lowestID(x.bits, b*x.words)
		}
	}
	return -1
}

// mostFreeExcept returns the invoker with the largest free GPU capacity
// (ties broken by lowest ID, ignoring free CPU) whose bit is clear in skip,
// or -1 when none is — the background warm-target preference. A nil skip
// excludes nothing.
func (x *fleetIndex) mostFreeExcept(skip []uint64) int {
	for g := x.maxGPU; g >= 0; g-- {
		if x.rows[g] == 0 {
			continue
		}
		row := x.rowBit[g*x.words : (g+1)*x.words]
		for w, v := range row {
			if skip != nil {
				v &^= skip[w]
			}
			if v != 0 {
				return w*64 + bits.TrailingZeros64(v)
			}
		}
	}
	return -1
}

// fitMask returns word w of the union of the GPU rows with at least gpu
// free vGPUs: the up invokers whose free GPU capacity could fit a request
// for gpu vGPUs (their free CPU still needs checking).
func (x *fleetIndex) fitMask(gpu, w int) uint64 {
	var m uint64
	for g := max(gpu, 0); g <= x.maxGPU; g++ {
		m |= x.rowBit[g*x.words+w]
	}
	return m
}

// growFns extends the per-function slices to cover n interned handles.
func (x *fleetIndex) growFns(n int) {
	for len(x.busyTotal) < n {
		x.warmSet = append(x.warmSet, nil)
		x.warmTotal = append(x.warmTotal, 0)
		x.busyTotal = append(x.busyTotal, 0)
		x.warmingInv = append(x.warmingInv, 0)
		x.warmingSet = append(x.warmingSet, nil)
		x.warmNext = append(x.warmNext, math.MaxInt64)
	}
}

// checkFn rejects handles this cluster's interner never assigned (negative
// sentinels and FnIDs from another cluster).
func (x *fleetIndex) checkFn(fn FnID) {
	if fn < 0 || int(fn) >= len(x.busyTotal) {
		panic(fmt.Sprintf("cluster: FnID %d not interned on this cluster (intern via Cluster.Intern or queue.Set.Bind)", fn))
	}
}

// setBit sets invoker id's bit in fn's bitset of sets, allocating the
// bitset on first use.
func (x *fleetIndex) setBit(sets [][]uint64, fn FnID, id int) {
	if sets[fn] == nil {
		sets[fn] = make([]uint64, x.words)
	}
	sets[fn][id/64] |= 1 << (id % 64)
}

func clearBit(set []uint64, id int) {
	set[id/64] &^= 1 << (id % 64)
}

// warmPushed records an idle-warm deadline exp pushed onto invoker id's
// ring of fn.
func (x *fleetIndex) warmPushed(fn FnID, id int, exp time.Duration) {
	x.warmTotal[fn]++
	x.warmNext[fn] = min(x.warmNext[fn], exp)
	x.setBit(x.warmSet, fn, id)
}

// warmDropped records k entries leaving invoker id's ring of fn (popped,
// pruned or flushed); emptied reports whether the ring is now empty.
func (x *fleetIndex) warmDropped(fn FnID, id, k int, emptied bool) {
	x.warmTotal[fn] -= k
	if emptied {
		clearBit(x.warmSet[fn], id)
	}
}

func (x *fleetIndex) busyDelta(fn FnID, d int) {
	x.busyTotal[fn] += d
}

// warming records invoker id starting (on) or ending its in-flight
// pre-warms of fn.
func (x *fleetIndex) warming(fn FnID, id int, on bool) {
	if on {
		x.warmingInv[fn]++
		x.setBit(x.warmingSet, fn, id)
	} else {
		x.warmingInv[fn]--
		clearBit(x.warmingSet[fn], id)
	}
}
