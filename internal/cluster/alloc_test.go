package cluster

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// The steady warm-pool path must stay allocation-free: a warm StartTask
// consumes the ring head, FinishTask pushes into storage the pool has
// already grown, and the presence/busy indexes are flat slices and
// preallocated bitsets. These pins are the regression gate for the expiry-
// wheel engine (benchmarks in bench_test.go are their timing twins).

func allocPinCluster() (*Cluster, *Invoker, FnID) {
	c := MustNew(DefaultConfig())
	fn := c.Intern("deblur")
	inv := c.Invokers[0]
	// Prime every structure the steady path touches: per-fn ledgers, the
	// ring's storage, the warm bitset, and the busy counter.
	inv.AddWarm(fn, 0)
	inv.StartTask(fn, 0)
	inv.FinishTask(fn, 0)
	return c, inv, fn
}

func TestStartFinishWarmAllocFree(t *testing.T) {
	_, inv, fn := allocPinCluster()
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		if !inv.StartTask(fn, now) {
			t.Fatal("expected a warm hit")
		}
		inv.FinishTask(fn, now)
	})
	if allocs != 0 {
		t.Errorf("StartTask(warm)+FinishTask allocates %.1f/op, want 0", allocs)
	}
}

func TestHasIdleWarmAllocFree(t *testing.T) {
	_, inv, fn := allocPinCluster()
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		if !inv.HasIdleWarm(fn, now) {
			t.Fatal("warm container vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("HasIdleWarm allocates %.1f/op, want 0", allocs)
	}
}

func TestExpiryPruneAllocFree(t *testing.T) {
	// Expiry itself is allocation-free too: containers expiring out of the
	// pool pop off the ring head without touching the heap.
	c := MustNew(DefaultConfig())
	fn := c.Intern("deblur")
	inv := c.Invokers[0]
	now := time.Duration(0)
	inv.AddWarm(fn, now)
	inv.HasIdleWarm(fn, now+c.Cfg.KeepAlive) // expire it: ring storage stays
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		inv.AddWarm(fn, now)
		if inv.HasIdleWarm(fn, now+c.Cfg.KeepAlive) {
			t.Fatal("container outlived its keep-alive")
		}
	})
	if allocs != 0 {
		t.Errorf("AddWarm+expire cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestFirstWarmFitAllocFree(t *testing.T) {
	c, _, fn := allocPinCluster()
	now := time.Duration(0)
	res := c.Invokers[0].Capacity
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		if c.FirstWarmFit(fn, now, res) == nil {
			t.Fatal("warm fit vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("FirstWarmFit allocates %.1f/op, want 0", allocs)
	}
}

func TestContainersForAllocFree(t *testing.T) {
	// The batched fleet prune plus the warm-index walk must not touch the
	// heap: the controller's pre-warm planners call this per function per
	// event.
	c, _, fn := allocPinCluster()
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		if c.ContainersFor(fn, now) != 1 {
			t.Fatal("warm container vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("ContainersFor allocates %.1f/op, want 0", allocs)
	}
}

func TestBestFitAllocFree(t *testing.T) {
	// The place fast path — a bucket-grid walk over the fleet index — is
	// called once per dispatch attempt and must stay allocation-free.
	c, _, _ := allocPinCluster()
	res := c.Invokers[0].Capacity
	allocs := testing.AllocsPerRun(1000, func() {
		if c.BestFit(res) == nil {
			t.Fatal("no invoker fits its own capacity")
		}
	})
	if allocs != 0 {
		t.Errorf("BestFit allocates %.1f/op, want 0", allocs)
	}
}

func TestMostFreeNotWarmingAllocFree(t *testing.T) {
	// The warm-target pick runs once per pre-warm the controller starts
	// (Controller.ensureWarmPool) and must stay allocation-free.
	c, inv, fn := allocPinCluster()
	inv.BeginWarming(fn)
	allocs := testing.AllocsPerRun(1000, func() {
		if got := c.MostFreeNotWarming(fn); got == nil || got == inv {
			t.Fatalf("MostFreeNotWarming = %v, want an invoker not warming fn", got)
		}
	})
	if allocs != 0 {
		t.Errorf("MostFreeNotWarming allocates %.1f/op, want 0", allocs)
	}
}

func TestWarmStampBatchesRepeatQueries(t *testing.T) {
	// A fleet-wide query at now leaves the earliest-deadline bound warmNext
	// above now, equal to the earliest surviving deadline, so repeats at
	// now (and at any later time before that deadline) skip the prune walk.
	c, inv, fn := allocPinCluster() // one container, deadline KeepAlive
	now := 5 * time.Millisecond
	if got := c.ContainersFor(fn, now); got != 1 {
		t.Fatalf("ContainersFor = %d, want 1", got)
	}
	first := c.Cfg.KeepAlive
	if next := c.idx.warmNext[fn]; next <= now || next != first {
		t.Fatalf("warmNext = %v after query at %v, want the earliest deadline %v", next, now, first)
	}
	// A container added at the same now is counted without a walk.
	inv.AddWarm(fn, now)
	if got := c.ContainersFor(fn, now); got != 2 {
		t.Fatalf("repeat ContainersFor = %d, want 2", got)
	}
	// A query past the first deadline walks, drops that container and
	// raises the bound to the survivor's deadline.
	if got := c.ContainersFor(fn, first); got != 1 {
		t.Fatalf("ContainersFor at the first deadline = %d, want 1", got)
	}
	if next := c.idx.warmNext[fn]; next != now+c.Cfg.KeepAlive {
		t.Fatalf("warmNext = %v after expiry, want %v", next, now+c.Cfg.KeepAlive)
	}

	// A crash that flushes the earliest container leaves the bound valid:
	// below the earliest deadline still in the fleet.
	c1 := MustNew(DefaultConfig())
	f1 := c1.Intern("deblur")
	c1.Invokers[0].AddWarm(f1, 0)
	c1.Invokers[1].AddWarm(f1, time.Millisecond)
	c1.Invokers[0].Crash(2 * time.Millisecond)
	if c1.idx.warmNext[f1] > time.Millisecond+c1.Cfg.KeepAlive {
		t.Fatalf("warmNext = %v after crash, above the surviving deadline", c1.idx.warmNext[f1])
	}
	if got := c1.ContainersFor(f1, 3*time.Millisecond); got != 1 {
		t.Fatalf("ContainersFor after crash = %d, want 1", got)
	}
	checkIndexConsistency(t, c1, 3*time.Millisecond)

	// KeepAlive == 0: a container pushed at now has deadline now, so it
	// lowers the bound to now and the next query at now prunes it.
	cfg := DefaultConfig()
	cfg.KeepAlive = 0
	c0 := MustNew(cfg)
	fn0 := c0.Intern("deblur")
	for _, at := range []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		if got := c0.ContainersFor(fn0, at); got != 0 {
			t.Fatalf("KeepAlive=0: ContainersFor before push at %v = %d, want 0", at, got)
		}
		c0.Invokers[0].AddWarm(fn0, at)
		if got := c0.ContainersFor(fn0, at); got != 0 {
			t.Fatalf("KeepAlive=0: ContainersFor at %v = %d, want 0 (expired on push)", at, got)
		}
		if c0.FirstWarmFit(fn0, at, units.Resources{}) != nil {
			t.Fatalf("KeepAlive=0: FirstWarmFit at %v found an expired container", at)
		}
	}
}
