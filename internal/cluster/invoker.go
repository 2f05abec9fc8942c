package cluster

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// Invoker is one worker node: a resource ledger plus per-function warm
// container pools. Idle warm containers do not hold vCPU/vGPU capacity in
// this model (MIG partitions are only occupied while kernels run); capacity
// is held by running tasks from acquisition to release.
//
// All container state is indexed by interned FnID (see Cluster.Intern):
// flat slices instead of string-keyed maps, and expiry rings instead of
// scan-pruned pools, so the steady warm-pool path (StartTask warm hit,
// FinishTask, HasIdleWarm) is allocation-free and never iterates a pool.
type Invoker struct {
	ID        int
	Capacity  units.Resources
	keepAlive time.Duration

	// idx receives every ledger mutation so cluster-wide queries need not
	// scan the fleet; nil for invokers outside a cluster.
	idx *fleetIndex

	used units.Resources
	// warm[fn] is the expiry ring of fn's idle warm containers.
	warm []expiryRing
	// busy[fn] counts containers currently executing fn.
	busy []int32
	// warming[fn] counts in-flight pre-warms of fn.
	warming []int32

	// Usage integrals for utilization accounting.
	lastChange  time.Duration
	cpuIntegral float64
	gpuIntegral float64

	// down marks a crashed invoker (fault injection): it holds no
	// containers, is absent from every placement index, and rejects all
	// ledger mutations until Recover.
	down bool
	// epoch counts crashes. Deferred container events (pre-warm
	// completions scheduled before a crash) capture the epoch at schedule
	// time and no-op when it moved on — the simulation engine has no event
	// cancellation, so stale closures must self-suppress.
	epoch uint64

	// Stats.
	ColdStarts int
	WarmStarts int
}

func newInvoker(id int, cap units.Resources, keepAlive time.Duration, idx *fleetIndex) *Invoker {
	return &Invoker{
		ID:        id,
		Capacity:  cap,
		keepAlive: keepAlive,
		idx:       idx,
	}
}

// checkFn rejects unresolved handles so a forgotten Cluster.Intern /
// queue.Set.Bind fails loudly instead of aliasing function 0.
func (inv *Invoker) checkFn(fn FnID) {
	if fn < 0 {
		panic(fmt.Sprintf("invoker %d: unresolved FnID %d (intern function names via Cluster.Intern or queue.Set.Bind first)", inv.ID, fn))
	}
}

// ensureFn grows the per-function ledgers to cover fn. The steady state
// touches only previously-seen functions, so growth happens once per
// (invoker, function) pair.
func (inv *Invoker) ensureFn(fn FnID) {
	inv.checkFn(fn)
	for int(fn) >= len(inv.busy) {
		inv.warm = append(inv.warm, expiryRing{})
		inv.busy = append(inv.busy, 0)
		inv.warming = append(inv.warming, 0)
	}
}

// Free returns the currently unallocated resources (the raw capacity
// ledger — a down invoker still reports its ledger, which is fully free;
// use Up/CanFit for placement decisions).
func (inv *Invoker) Free() units.Resources { return inv.Capacity.Sub(inv.used) }

// CanFit reports whether r fits in the free resources. A down invoker
// fits nothing, so placement policies that probe a specific node (the
// home-invoker and predecessor-locality steps) naturally skip it.
func (inv *Invoker) CanFit(r units.Resources) bool { return !inv.down && r.Fits(inv.Free()) }

// Up reports whether the invoker is serving (not crashed).
func (inv *Invoker) Up() bool { return !inv.down }

// Epoch returns the invoker's crash epoch. Deferred container events
// capture it at schedule time and no-op when a crash moved it on.
func (inv *Invoker) Epoch() uint64 { return inv.epoch }

// checkUp rejects container and ledger mutations on a down invoker: the
// controller aborts in-flight work before a crash and epoch-guards its
// deferred events, so reaching a down invoker here is a scheduler bug of
// the same class as the ledger panics.
func (inv *Invoker) checkUp(op string) {
	if inv.down {
		panic(fmt.Sprintf("invoker %d: %s while down", inv.ID, op))
	}
}

// Acquire reserves r at time now. It returns an error if r does not fit —
// callers are expected to check CanFit first, so an error indicates a
// scheduler bug.
func (inv *Invoker) Acquire(r units.Resources, now time.Duration) error {
	inv.checkUp("Acquire")
	if !r.NonNegative() {
		return fmt.Errorf("invoker %d: acquire of negative resources %v", inv.ID, r)
	}
	if !inv.CanFit(r) {
		return fmt.Errorf("invoker %d: acquire %v exceeds free %v", inv.ID, r, inv.Free())
	}
	inv.integrate(now)
	old := inv.Free()
	inv.used = inv.used.Add(r)
	if inv.idx != nil {
		inv.idx.capacityChanged(inv.ID, old, inv.Free())
	}
	return nil
}

// Release returns r to the free pool at time now.
func (inv *Invoker) Release(r units.Resources, now time.Duration) {
	inv.checkUp("Release")
	inv.integrate(now)
	old := inv.Free()
	inv.used = inv.used.Sub(r)
	if !inv.used.NonNegative() {
		panic(fmt.Sprintf("invoker %d: released more than acquired (used=%v)", inv.ID, inv.used))
	}
	if inv.idx != nil {
		inv.idx.capacityChanged(inv.ID, old, inv.Free())
	}
}

func (inv *Invoker) integrate(now time.Duration) {
	if now < inv.lastChange {
		// Out-of-order timestamps are scheduler bugs: silently skipping the
		// window would under-count the utilization integrals, so surface it
		// like the other ledger-bug panics.
		panic(fmt.Sprintf("invoker %d: time regression in usage integral (now=%v before last change %v)", inv.ID, now, inv.lastChange))
	}
	dt := float64(now - inv.lastChange)
	inv.cpuIntegral += float64(inv.used.CPU) * dt
	inv.gpuIntegral += float64(inv.used.GPU) * dt
	inv.lastChange = now
}

func (inv *Invoker) usageIntegral(now time.Duration) (cpu, gpu float64) {
	inv.integrate(now)
	return inv.cpuIntegral, inv.gpuIntegral
}

// pruneWarm drops idle containers whose keep-alive expired by now —
// amortized O(1) per container: expired deadlines pop off the ring head,
// never a pool scan — and reports them to the cluster's warm index. With
// nothing expired it does no index bookkeeping.
func (inv *Invoker) pruneWarm(fn FnID, now time.Duration) {
	inv.checkFn(fn)
	if int(fn) < len(inv.warm) {
		if k := inv.warm[fn].pruneExpired(now); k > 0 {
			inv.dropWarm(fn, k)
		}
	}
}

// dropWarm reports k entries removed from fn's ring to the cluster's warm
// index.
func (inv *Invoker) dropWarm(fn FnID, k int) {
	if inv.idx != nil {
		inv.idx.warmDropped(fn, inv.ID, k, inv.warm[fn].n == 0)
	}
}

// HasIdleWarm reports whether an idle warm container for fn exists at now.
func (inv *Invoker) HasIdleWarm(fn FnID, now time.Duration) bool {
	inv.pruneWarm(fn, now)
	return int(fn) < len(inv.warm) && inv.warm[fn].n > 0
}

// IdleWarmCount returns the number of idle warm containers for fn at now.
func (inv *Invoker) IdleWarmCount(fn FnID, now time.Duration) int {
	inv.pruneWarm(fn, now)
	if int(fn) >= len(inv.warm) {
		return 0
	}
	return inv.warm[fn].n
}

// HasContainer reports whether any container (idle or busy) for fn exists.
func (inv *Invoker) HasContainer(fn FnID, now time.Duration) bool {
	if int(fn) < len(inv.busy) && inv.busy[fn] > 0 {
		return true
	}
	return inv.HasIdleWarm(fn, now)
}

// StartTask claims a container for a task of fn at now and reports whether
// the start is warm. A warm start consumes the idle container with the
// earliest expiry (the oldest — the ring head); a cold start creates a new
// (busy) container.
func (inv *Invoker) StartTask(fn FnID, now time.Duration) (warm bool) {
	inv.checkUp("StartTask")
	inv.ensureFn(fn)
	r := &inv.warm[fn]
	if k := r.pruneExpired(now); k > 0 {
		inv.dropWarm(fn, k)
	}
	if r.n > 0 {
		r.popFront()
		inv.dropWarm(fn, 1)
		inv.busy[fn]++
		if inv.idx != nil {
			inv.idx.busyDelta(fn, 1)
		}
		inv.WarmStarts++
		return true
	}
	inv.busy[fn]++
	if inv.idx != nil {
		inv.idx.busyDelta(fn, 1)
	}
	inv.ColdStarts++
	return false
}

// FinishTask releases the task's container back to the idle pool at now,
// with the configured keep-alive.
func (inv *Invoker) FinishTask(fn FnID, now time.Duration) {
	inv.checkUp("FinishTask")
	inv.checkFn(fn)
	if int(fn) >= len(inv.busy) || inv.busy[fn] <= 0 {
		panic(fmt.Sprintf("invoker %d: FinishTask(fn %d) without StartTask", inv.ID, fn))
	}
	inv.busy[fn]--
	if inv.idx != nil {
		inv.idx.busyDelta(fn, -1)
	}
	exp := now + inv.keepAlive
	inv.warm[fn].push(exp)
	if inv.idx != nil {
		inv.idx.warmPushed(fn, inv.ID, exp)
	}
}

// AddWarm installs an idle warm container (the pre-warmer's effect) at now.
func (inv *Invoker) AddWarm(fn FnID, now time.Duration) {
	inv.checkUp("AddWarm")
	inv.ensureFn(fn)
	inv.pruneWarm(fn, now)
	exp := now + inv.keepAlive
	inv.warm[fn].push(exp)
	if inv.idx != nil {
		inv.idx.warmPushed(fn, inv.ID, exp)
	}
}

// BeginWarming marks a container of fn as being cold-started ahead of
// demand; FinishWarming adds it to the idle pool when the cold start
// completes.
func (inv *Invoker) BeginWarming(fn FnID) {
	inv.checkUp("BeginWarming")
	inv.ensureFn(fn)
	inv.warming[fn]++
	if inv.warming[fn] == 1 && inv.idx != nil {
		inv.idx.warming(fn, inv.ID, true)
	}
}

// Warming reports whether a pre-warm of fn is in flight.
func (inv *Invoker) Warming(fn FnID) bool {
	inv.checkFn(fn)
	return int(fn) < len(inv.warming) && inv.warming[fn] > 0
}

// FinishWarming completes an in-flight pre-warm at time now.
func (inv *Invoker) FinishWarming(fn FnID, now time.Duration) {
	inv.checkUp("FinishWarming")
	inv.checkFn(fn)
	if int(fn) >= len(inv.warming) || inv.warming[fn] <= 0 {
		panic(fmt.Sprintf("invoker %d: FinishWarming(fn %d) without BeginWarming", inv.ID, fn))
	}
	inv.warming[fn]--
	if inv.warming[fn] == 0 && inv.idx != nil {
		inv.idx.warming(fn, inv.ID, false)
	}
	inv.AddWarm(fn, now)
}

// AbortTask destroys a running container of fn — the failure path (task
// fault or invoker crash): unlike FinishTask the container does not return
// to the warm pool. The caller releases the task's resources separately,
// exactly as FinishTask's callers do.
func (inv *Invoker) AbortTask(fn FnID) {
	inv.checkUp("AbortTask")
	inv.checkFn(fn)
	if int(fn) >= len(inv.busy) || inv.busy[fn] <= 0 {
		panic(fmt.Sprintf("invoker %d: AbortTask(fn %d) without StartTask", inv.ID, fn))
	}
	inv.busy[fn]--
	if inv.idx != nil {
		inv.idx.busyDelta(fn, -1)
	}
}

// Crash takes the invoker down at now, flushing all container state: every
// idle warm container is lost (returned as idleFlushed), every in-flight
// pre-warm is cancelled, and the invoker leaves every placement index until
// Recover. The caller must have aborted in-flight tasks first (Release +
// AbortTask per task) — a crash with busy containers or held resources is a
// controller bug and panics like the other ledger invariants.
func (inv *Invoker) Crash(now time.Duration) (idleFlushed int) {
	inv.checkUp("Crash")
	if !inv.used.Zero() {
		panic(fmt.Sprintf("invoker %d: Crash with resources still held (%v); abort in-flight tasks first", inv.ID, inv.used))
	}
	inv.integrate(now)
	for fn := range inv.warm {
		// Count only containers still alive at the crash: expired-but-
		// unpruned ring entries are not lost capacity, and pruning first
		// keeps the count independent of when lazy prunes last ran.
		inv.pruneWarm(FnID(fn), now)
		if n := inv.warm[fn].n; n > 0 {
			idleFlushed += n
			inv.warm[fn].reset()
			inv.dropWarm(FnID(fn), n)
		}
		if inv.busy[fn] != 0 {
			panic(fmt.Sprintf("invoker %d: Crash with %d busy containers of fn %d; abort in-flight tasks first", inv.ID, inv.busy[fn], fn))
		}
		if inv.warming[fn] > 0 {
			inv.warming[fn] = 0
			if inv.idx != nil {
				inv.idx.warming(FnID(fn), inv.ID, false)
			}
		}
	}
	inv.down = true
	inv.epoch++
	if inv.idx != nil {
		inv.idx.remove(inv.ID, inv.Free()) // fully free: nothing held
	}
	return idleFlushed
}

// Recover brings a crashed invoker back up at now, fully free and cold (no
// warm containers survive the downtime), and re-enters it into the
// placement indexes.
func (inv *Invoker) Recover(now time.Duration) {
	if !inv.down {
		panic(fmt.Sprintf("invoker %d: Recover while up", inv.ID))
	}
	inv.integrate(now) // used is zero across the downtime: accrues nothing
	inv.down = false
	if inv.idx != nil {
		inv.idx.add(inv.ID, inv.Free())
	}
}

// BusyContainers returns the number of running containers for fn.
func (inv *Invoker) BusyContainers(fn FnID) int {
	inv.checkFn(fn)
	if int(fn) >= len(inv.busy) {
		return 0
	}
	return int(inv.busy[fn])
}
