package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// This file model-checks the warm-pool engine: a reference fleet built from
// the obvious map-and-scan semantics (string-era invokers, fleet-scanning
// queries, no indexes) runs the same randomized operation sequences as the
// production engine (interned FnIDs, expiry rings, fleetIndex), and every
// observable — warm/cold start classification, presence, counts,
// WarmInvokers ID order, placement winners — must match after every step.
// Timestamps are non-decreasing (with deliberate equal-time runs), function
// counts reach a dozen, and pool sizes reach 100. Fleets fill one bitset
// word or, on wide seeds, up to four, and some seeds run with KeepAlive 0
// (see drawFuzzFleet). Crash/recover churn rides along: nodes go down
// (flushing container state, leaving every placement query) and come back
// cold, following the controller's abort-then-crash protocol.

// refInvoker is the reference node: per-function warm pools as expiry-time
// slices pruned by scanning, busy/warming as plain maps.
type refInvoker struct {
	id        int
	capacity  units.Resources
	keepAlive time.Duration
	used      units.Resources
	warm      map[FnID][]time.Duration
	busy      map[FnID]int
	warming   map[FnID]int
	down      bool

	coldStarts int
	warmStarts int
}

func newRefInvoker(id int, capacity units.Resources, keepAlive time.Duration) *refInvoker {
	return &refInvoker{
		id:        id,
		capacity:  capacity,
		keepAlive: keepAlive,
		warm:      make(map[FnID][]time.Duration),
		busy:      make(map[FnID]int),
		warming:   make(map[FnID]int),
	}
}

func (ri *refInvoker) free() units.Resources         { return ri.capacity.Sub(ri.used) }
func (ri *refInvoker) canFit(r units.Resources) bool { return !ri.down && r.Fits(ri.free()) }

// crash flushes all container state and takes the node out of service.
// Like the engine's Crash, only containers still alive at now count as
// flushed (both models prune before counting, so lazy-prune timing cannot
// skew the comparison).
func (ri *refInvoker) crash(now time.Duration) (idleFlushed int) {
	for fn := range ri.warm {
		ri.pruneWarm(fn, now)
		idleFlushed += len(ri.warm[fn])
		delete(ri.warm, fn)
	}
	for fn := range ri.warming {
		delete(ri.warming, fn)
	}
	ri.down = true
	return idleFlushed
}

func (ri *refInvoker) recover() { ri.down = false }
func (ri *refInvoker) acquire(r units.Resources) bool {
	if !ri.canFit(r) {
		return false
	}
	ri.used = ri.used.Add(r)
	return true
}
func (ri *refInvoker) release(r units.Resources) { ri.used = ri.used.Sub(r) }

func (ri *refInvoker) pruneWarm(fn FnID, now time.Duration) {
	pool, ok := ri.warm[fn]
	if !ok {
		return
	}
	kept := pool[:0]
	for _, exp := range pool {
		if exp > now {
			kept = append(kept, exp)
		}
	}
	if len(kept) == 0 {
		delete(ri.warm, fn)
	} else {
		ri.warm[fn] = kept
	}
}

func (ri *refInvoker) hasIdleWarm(fn FnID, now time.Duration) bool {
	ri.pruneWarm(fn, now)
	return len(ri.warm[fn]) > 0
}

func (ri *refInvoker) idleWarmCount(fn FnID, now time.Duration) int {
	ri.pruneWarm(fn, now)
	return len(ri.warm[fn])
}

func (ri *refInvoker) hasContainer(fn FnID, now time.Duration) bool {
	if ri.busy[fn] > 0 {
		return true
	}
	return ri.hasIdleWarm(fn, now)
}

func (ri *refInvoker) startTask(fn FnID, now time.Duration) (warm bool) {
	ri.pruneWarm(fn, now)
	pool := ri.warm[fn]
	if len(pool) > 0 {
		ri.warm[fn] = pool[1:] // earliest expiry first
		if len(ri.warm[fn]) == 0 {
			delete(ri.warm, fn)
		}
		ri.busy[fn]++
		ri.warmStarts++
		return true
	}
	ri.busy[fn]++
	ri.coldStarts++
	return false
}

func (ri *refInvoker) finishTask(fn FnID, now time.Duration) {
	ri.busy[fn]--
	ri.warm[fn] = append(ri.warm[fn], now+ri.keepAlive)
}

func (ri *refInvoker) addWarm(fn FnID, now time.Duration) {
	ri.pruneWarm(fn, now)
	ri.warm[fn] = append(ri.warm[fn], now+ri.keepAlive)
}

func (ri *refInvoker) beginWarming(fn FnID)   { ri.warming[fn]++ }
func (ri *refInvoker) isWarming(fn FnID) bool { return ri.warming[fn] > 0 }

func (ri *refInvoker) finishWarming(fn FnID, now time.Duration) {
	ri.warming[fn]--
	ri.addWarm(fn, now)
}

// refFleet answers the cluster-level queries by scanning all nodes.
type refFleet struct {
	invokers []*refInvoker
}

func (rf *refFleet) warmInvokers(fn FnID, now time.Duration) []int {
	var out []int
	for _, ri := range rf.invokers {
		if ri.hasIdleWarm(fn, now) {
			out = append(out, ri.id)
		}
	}
	return out
}

func (rf *refFleet) firstWarmFit(fn FnID, now time.Duration, res units.Resources) int {
	for _, ri := range rf.invokers {
		if ri.hasIdleWarm(fn, now) && ri.canFit(res) {
			return ri.id
		}
	}
	return -1
}

func (rf *refFleet) hasBusyOrWarming(fn FnID) bool {
	for _, ri := range rf.invokers {
		if ri.busy[fn] > 0 || ri.warming[fn] > 0 {
			return true
		}
	}
	return false
}

func (rf *refFleet) containersFor(fn FnID, now time.Duration) int {
	n := 0
	for _, ri := range rf.invokers {
		n += ri.busy[fn] + ri.idleWarmCount(fn, now)
		if ri.warming[fn] > 0 {
			n++
		}
	}
	return n
}

// mostFree: largest free GPU, ties by free CPU, then lowest ID. Down
// invokers are out of every placement query.
func (rf *refFleet) mostFree() int {
	best := -1
	for _, ri := range rf.invokers {
		if ri.down {
			continue
		}
		if best < 0 {
			best = ri.id
			continue
		}
		bf, f := rf.invokers[best].free(), ri.free()
		if f.GPU > bf.GPU || (f.GPU == bf.GPU && f.CPU > bf.CPU) {
			best = ri.id
		}
	}
	return best
}

// bestFit: among fitting nodes, minimize free GPU, then free CPU, then ID.
func (rf *refFleet) bestFit(res units.Resources) int {
	best := -1
	for _, ri := range rf.invokers {
		if !ri.canFit(res) {
			continue
		}
		if best < 0 {
			best = ri.id
			continue
		}
		bf, f := rf.invokers[best].free(), ri.free()
		if f.GPU < bf.GPU || (f.GPU == bf.GPU && f.CPU < bf.CPU) {
			best = ri.id
		}
	}
	return best
}

// mostFreeNotWarming: largest free GPU (ignoring CPU), ties by lowest ID,
// among nodes not warming fn.
func (rf *refFleet) mostFreeNotWarming(fn FnID) int {
	best := -1
	for _, ri := range rf.invokers {
		if ri.down || ri.isWarming(fn) {
			continue
		}
		if best < 0 || ri.free().GPU > rf.invokers[best].free().GPU {
			best = ri.id
		}
	}
	return best
}

// fleetPair drives the engine and the reference in lockstep.
type fleetPair struct {
	t   *testing.T
	c   *Cluster
	ref *refFleet
	fns []FnID
	now time.Duration
	// held tracks outstanding acquisitions per invoker so releases are legal.
	held [][]units.Resources
}

func newFleetPair(t *testing.T, rng *rand.Rand, seed int) *fleetPair {
	shapes, keepAlive := drawFuzzFleet(rng, seed, 8, 20*time.Millisecond)
	numFns := 1 + rng.Intn(12)
	c := MustNew(Config{
		NodeShapes:          shapes,
		KeepAlive:           keepAlive,
		RemoteBandwidthMBps: 80,
	})
	rf := &refFleet{}
	for i, s := range shapes {
		rf.invokers = append(rf.invokers, newRefInvoker(i, s, keepAlive))
	}
	p := &fleetPair{t: t, c: c, ref: rf, held: make([][]units.Resources, len(shapes))}
	for i := 0; i < numFns; i++ {
		p.fns = append(p.fns, c.Intern(fmt.Sprintf("fn-%d", i)))
	}
	return p
}

func (p *fleetPair) randRes(rng *rand.Rand) units.Resources {
	return units.Resources{CPU: units.VCPU(rng.Intn(5)), GPU: units.VGPU(rng.Intn(4))}
}

// step applies one random mutating operation to both fleets.
func (p *fleetPair) step(rng *rand.Rand) {
	// Non-decreasing time; 40% of steps share the previous timestamp so
	// equal-time sequences are exercised, the rest jump up to ~1.5 keep-
	// alives so pools expire mid-sequence.
	if rng.Intn(10) >= 4 {
		p.now += time.Duration(rng.Intn(30)) * time.Millisecond / 10
	}
	inv := pickInvoker(rng, len(p.c.Invokers))
	fn := p.fns[rng.Intn(len(p.fns))]
	ci, ri := p.c.Invokers[inv], p.ref.invokers[inv]

	op := rng.Intn(10)
	// A down node accepts no container or ledger mutations (the engine
	// panics on them); only recovery — and the CanFit probe, which must
	// report false — is legal.
	if ri.down && op != 6 && op != 9 {
		return
	}
	switch op {
	case 0: // add warm containers, occasionally a large burst
		n := 1
		if rng.Intn(5) == 0 {
			n = 1 + rng.Intn(25)
		}
		for i := 0; i < n; i++ {
			ci.AddWarm(fn, p.now)
			ri.addWarm(fn, p.now)
		}
	case 1, 2: // start a task; the classification must match
		warm := ci.StartTask(fn, p.now)
		refWarm := ri.startTask(fn, p.now)
		if warm != refWarm {
			p.t.Fatalf("now=%v inv=%d fn=%d: StartTask warm=%v, reference %v", p.now, inv, fn, warm, refWarm)
		}
	case 3: // finish a running task
		if ri.busy[fn] > 0 {
			ci.FinishTask(fn, p.now)
			ri.finishTask(fn, p.now)
		}
	case 4:
		ci.BeginWarming(fn)
		ri.beginWarming(fn)
	case 5:
		if ri.warming[fn] > 0 {
			ci.FinishWarming(fn, p.now)
			ri.finishWarming(fn, p.now)
		}
	case 6: // claim capacity (placement queries depend on free shapes)
		r := p.randRes(rng)
		if ci.CanFit(r) != ri.canFit(r) {
			p.t.Fatalf("now=%v inv=%d: CanFit(%v) disagrees", p.now, inv, r)
		}
		if ci.CanFit(r) {
			if err := ci.Acquire(r, p.now); err != nil {
				p.t.Fatalf("Acquire: %v", err)
			}
			ri.acquire(r)
			p.held[inv] = append(p.held[inv], r)
		}
	case 7: // release a prior claim
		if n := len(p.held[inv]); n > 0 {
			r := p.held[inv][n-1]
			p.held[inv] = p.held[inv][:n-1]
			ci.Release(r, p.now)
			ri.release(r)
		}
	case 8: // crash, following the controller's abort-then-crash protocol
		for _, r := range p.held[inv] {
			ci.Release(r, p.now)
			ri.release(r)
		}
		p.held[inv] = p.held[inv][:0]
		for _, f := range p.fns {
			for ri.busy[f] > 0 {
				ci.AbortTask(f)
				ri.busy[f]--
			}
		}
		if got, want := ci.Crash(p.now), ri.crash(p.now); got != want {
			p.t.Fatalf("now=%v inv=%d: Crash flushed %d idle containers, reference %d", p.now, inv, got, want)
		}
		if ci.Up() {
			p.t.Fatalf("now=%v inv=%d: Up after Crash", p.now, inv)
		}
	case 9: // recover a crashed node (fully free, cold pools)
		if ri.down {
			ci.Recover(p.now)
			ri.recover()
			if !ci.Up() {
				p.t.Fatalf("now=%v inv=%d: down after Recover", p.now, inv)
			}
		}
	}
}

// checkSpot compares one randomly chosen observable.
func (p *fleetPair) checkSpot(rng *rand.Rand) {
	inv := rng.Intn(len(p.c.Invokers))
	fn := p.fns[rng.Intn(len(p.fns))]
	ci, ri := p.c.Invokers[inv], p.ref.invokers[inv]
	switch rng.Intn(6) {
	case 0:
		if got, want := ci.HasIdleWarm(fn, p.now), ri.hasIdleWarm(fn, p.now); got != want {
			p.t.Fatalf("now=%v inv=%d fn=%d: HasIdleWarm=%v, reference %v", p.now, inv, fn, got, want)
		}
	case 1:
		if got, want := ci.IdleWarmCount(fn, p.now), ri.idleWarmCount(fn, p.now); got != want {
			p.t.Fatalf("now=%v inv=%d fn=%d: IdleWarmCount=%d, reference %d", p.now, inv, fn, got, want)
		}
	case 2:
		if got, want := ci.HasContainer(fn, p.now), ri.hasContainer(fn, p.now); got != want {
			p.t.Fatalf("now=%v inv=%d fn=%d: HasContainer=%v, reference %v", p.now, inv, fn, got, want)
		}
	case 3:
		res := p.randRes(rng)
		got := -1
		if w := p.c.FirstWarmFit(fn, p.now, res); w != nil {
			got = w.ID
		}
		if want := p.ref.firstWarmFit(fn, p.now, res); got != want {
			p.t.Fatalf("now=%v fn=%d: FirstWarmFit(%v)=%d, reference %d", p.now, fn, res, got, want)
		}
	case 4:
		res := p.randRes(rng)
		got := -1
		if b := p.c.BestFit(res); b != nil {
			got = b.ID
		}
		if want := p.ref.bestFit(res); got != want {
			p.t.Fatalf("now=%v: BestFit(%v)=%d, reference %d", p.now, res, got, want)
		}
	case 5:
		got := -1
		if m := p.c.MostFree(); m != nil {
			got = m.ID
		}
		if want := p.ref.mostFree(); got != want {
			p.t.Fatalf("now=%v: MostFree=%d, reference %d", p.now, got, want)
		}
	}
}

// checkFull compares every observable of every (invoker, function) pair.
func (p *fleetPair) checkFull() {
	for _, fn := range p.fns {
		gotWarm := []int{}
		for _, w := range p.c.WarmInvokers(fn, p.now) {
			gotWarm = append(gotWarm, w.ID)
		}
		wantWarm := p.ref.warmInvokers(fn, p.now)
		if fmt.Sprint(gotWarm) != fmt.Sprint(wantWarm) {
			p.t.Fatalf("now=%v fn=%d: WarmInvokers=%v, reference %v", p.now, fn, gotWarm, wantWarm)
		}
		if got, want := p.c.HasBusyOrWarming(fn), p.ref.hasBusyOrWarming(fn); got != want {
			p.t.Fatalf("now=%v fn=%d: HasBusyOrWarming=%v, reference %v", p.now, fn, got, want)
		}
		if got, want := p.c.ContainersFor(fn, p.now), p.ref.containersFor(fn, p.now); got != want {
			p.t.Fatalf("now=%v fn=%d: ContainersFor=%d, reference %d", p.now, fn, got, want)
		}
		mfGot := -1
		if m := p.c.MostFreeNotWarming(fn); m != nil {
			mfGot = m.ID
		}
		if want := p.ref.mostFreeNotWarming(fn); mfGot != want {
			p.t.Fatalf("now=%v fn=%d: MostFreeNotWarming=%d, reference %d", p.now, fn, mfGot, want)
		}
		for inv, ci := range p.c.Invokers {
			ri := p.ref.invokers[inv]
			if got, want := ci.IdleWarmCount(fn, p.now), ri.idleWarmCount(fn, p.now); got != want {
				p.t.Fatalf("now=%v inv=%d fn=%d: IdleWarmCount=%d, reference %d", p.now, inv, fn, got, want)
			}
			if got, want := ci.BusyContainers(fn), ri.busy[fn]; got != want {
				p.t.Fatalf("now=%v inv=%d fn=%d: BusyContainers=%d, reference %d", p.now, inv, fn, got, want)
			}
			if got, want := ci.Warming(fn), ri.isWarming(fn); got != want {
				p.t.Fatalf("now=%v inv=%d fn=%d: Warming=%v, reference %v", p.now, inv, fn, got, want)
			}
		}
	}
	for inv, ci := range p.c.Invokers {
		ri := p.ref.invokers[inv]
		if ci.ColdStarts != ri.coldStarts || ci.WarmStarts != ri.warmStarts {
			p.t.Fatalf("inv=%d: starts cold=%d warm=%d, reference cold=%d warm=%d",
				inv, ci.ColdStarts, ci.WarmStarts, ri.coldStarts, ri.warmStarts)
		}
		if ci.Up() == ri.down {
			p.t.Fatalf("inv=%d: Up=%v, reference down=%v", inv, ci.Up(), ri.down)
		}
	}
	upWant, freeWant := 0, units.Resources{}
	for _, ri := range p.ref.invokers {
		if !ri.down {
			upWant++
			freeWant = freeWant.Add(ri.free())
		}
	}
	if got := p.c.UpInvokers(); got != upWant {
		p.t.Fatalf("now=%v: UpInvokers=%d, reference %d", p.now, got, upWant)
	}
	if got := p.c.TotalFree(); got != freeWant {
		p.t.Fatalf("now=%v: TotalFree=%v, reference %v", p.now, got, freeWant)
	}
}

func TestWarmPoolEngineMatchesReference(t *testing.T) {
	seeds := 12
	ops := 2500
	if testing.Short() {
		seeds, ops = 4, 800
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xE5C9 + int64(seed)))
			p := newFleetPair(t, rng, seed)
			for i := 0; i < ops; i++ {
				p.step(rng)
				p.checkSpot(rng)
				if i%250 == 249 {
					p.checkFull()
				}
			}
			p.checkFull()
			checkIndexConsistency(t, p.c, p.now)
		})
	}
}

// TestWarmPoolLargePools drives a single (invoker, function) pool through
// grow/expire/consume cycles at sizes up to 100 — the ring's wraparound and
// re-linearizing growth paths — against the reference.
func TestWarmPoolLargePools(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	keepAlive := 10 * time.Millisecond
	c := MustNew(Config{
		NodeShapes:          []units.Resources{{CPU: 16, GPU: 7}},
		KeepAlive:           keepAlive,
		RemoteBandwidthMBps: 80,
	})
	fn := c.Intern("f")
	ci := c.Invokers[0]
	ri := newRefInvoker(0, units.Resources{CPU: 16, GPU: 7}, keepAlive)
	now := time.Duration(0)
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 {
			now += time.Duration(rng.Intn(4)) * time.Millisecond / 2
		}
		switch rng.Intn(4) {
		case 0, 1:
			if ri.idleWarmCount(fn, now) < 100 {
				ci.AddWarm(fn, now)
				ri.addWarm(fn, now)
			}
		case 2:
			if got, want := ci.StartTask(fn, now), ri.startTask(fn, now); got != want {
				t.Fatalf("op %d now=%v: StartTask warm=%v, reference %v", i, now, got, want)
			}
		case 3:
			if ri.busy[fn] > 0 {
				ci.FinishTask(fn, now)
				ri.finishTask(fn, now)
			}
		}
		if got, want := ci.IdleWarmCount(fn, now), ri.idleWarmCount(fn, now); got != want {
			t.Fatalf("op %d now=%v: IdleWarmCount=%d, reference %d", i, now, got, want)
		}
	}
}
