package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 16 || cfg.NodeCPU != 16 || cfg.NodeGPU != 7 {
		t.Errorf("testbed shape = %d×(%d vCPU, %d vGPU), want 16×(16,7)", cfg.Nodes, cfg.NodeCPU, cfg.NodeGPU)
	}
	if cfg.KeepAlive != 10*time.Minute {
		t.Errorf("keep-alive = %v, want 10m (OpenWhisk)", cfg.KeepAlive)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0, NodeCPU: 1, NodeGPU: 1, RemoteBandwidthMBps: 1},
		{Nodes: 1, NodeCPU: 0, NodeGPU: 1, RemoteBandwidthMBps: 1},
		{Nodes: 1, NodeCPU: 1, NodeGPU: 1, RemoteBandwidthMBps: 0},
		{Nodes: 1, NodeCPU: 1, NodeGPU: 1, KeepAlive: -1, RemoteBandwidthMBps: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTransferTime(t *testing.T) {
	cfg := DefaultConfig()
	local := cfg.TransferTime(2.5, true)
	if local != cfg.LocalTransfer {
		t.Errorf("local transfer = %v", local)
	}
	remote := cfg.TransferTime(2.5, false)
	want := cfg.RemoteLatency + time.Duration(2.5/cfg.RemoteBandwidthMBps*float64(time.Second))
	if remote != want {
		t.Errorf("remote transfer = %v, want %v", remote, want)
	}
	if remote <= local {
		t.Errorf("remote (%v) should exceed local (%v)", remote, local)
	}
	if cfg.TransferTime(0, false) != 0 {
		t.Errorf("zero-size transfer should be free")
	}
}

func TestAcquireRelease(t *testing.T) {
	c := testCluster(t)
	inv := c.Invokers[0]
	r := units.Resources{CPU: 8, GPU: 4}
	if err := inv.Acquire(r, 0); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if free := inv.Free(); free.CPU != 8 || free.GPU != 3 {
		t.Errorf("free after acquire = %v", free)
	}
	if inv.CanFit(units.Resources{CPU: 9, GPU: 1}) {
		t.Errorf("over-capacity fit accepted")
	}
	// Second acquire that fits.
	if err := inv.Acquire(units.Resources{CPU: 8, GPU: 3}, time.Second); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	// Now full.
	if err := inv.Acquire(units.Resources{CPU: 1}, time.Second); err == nil {
		t.Errorf("acquire on full node succeeded")
	}
	inv.Release(r, 2*time.Second)
	if free := inv.Free(); free.CPU != 8 || free.GPU != 4 {
		t.Errorf("free after release = %v", free)
	}
}

func TestReleaseMoreThanAcquiredPanics(t *testing.T) {
	c := testCluster(t)
	defer func() {
		if recover() == nil {
			t.Errorf("over-release did not panic")
		}
	}()
	c.Invokers[0].Release(units.Resources{CPU: 1}, 0)
}

func TestWarmContainerLifecycle(t *testing.T) {
	c := testCluster(t)
	inv := c.Invokers[0]
	fn := c.Intern("deblur")

	if inv.HasIdleWarm(fn, 0) {
		t.Errorf("fresh invoker has warm container")
	}
	if warm := inv.StartTask(fn, 0); warm {
		t.Errorf("first start reported warm")
	}
	if inv.ColdStarts != 1 {
		t.Errorf("cold starts = %d", inv.ColdStarts)
	}
	inv.FinishTask(fn, time.Second)
	if !inv.HasIdleWarm(fn, 2*time.Second) {
		t.Errorf("container not idle after finish")
	}
	if warm := inv.StartTask(fn, 3*time.Second); !warm {
		t.Errorf("second start not warm")
	}
	if inv.WarmStarts != 1 {
		t.Errorf("warm starts = %d", inv.WarmStarts)
	}
	inv.FinishTask(fn, 4*time.Second)
}

func TestKeepAliveExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepAlive = 10 * time.Second
	c := MustNew(cfg)
	inv := c.Invokers[0]
	fn := c.Intern("f")
	inv.StartTask(fn, 0)
	inv.FinishTask(fn, time.Second) // idle until 11s
	if !inv.HasIdleWarm(fn, 10*time.Second) {
		t.Errorf("container expired early")
	}
	if inv.HasIdleWarm(fn, 11*time.Second) {
		t.Errorf("container survived past keep-alive")
	}
	// A task after expiry is a cold start.
	if warm := inv.StartTask(fn, 12*time.Second); warm {
		t.Errorf("post-expiry start reported warm")
	}
	inv.FinishTask(fn, 13*time.Second)
}

func TestFinishWithoutStartPanics(t *testing.T) {
	c := testCluster(t)
	defer func() {
		if recover() == nil {
			t.Errorf("FinishTask without StartTask did not panic")
		}
	}()
	c.Invokers[0].FinishTask(c.Intern("f"), 0)
}

func TestWarmingLifecycle(t *testing.T) {
	c := testCluster(t)
	inv := c.Invokers[0]
	fn := c.Intern("f")
	if inv.Warming(fn) {
		t.Errorf("fresh invoker warming")
	}
	inv.BeginWarming(fn)
	if !inv.Warming(fn) || !c.HasBusyOrWarming(fn) {
		t.Errorf("warming not visible")
	}
	if inv.HasContainer(fn, 0) {
		t.Errorf("warming already counts as container")
	}
	inv.FinishWarming(fn, time.Second)
	if inv.Warming(fn) {
		t.Errorf("still warming after finish")
	}
	if !inv.HasIdleWarm(fn, 2*time.Second) {
		t.Errorf("no idle container after warming")
	}
}

func TestFinishWarmingWithoutBeginPanics(t *testing.T) {
	c := testCluster(t)
	defer func() {
		if recover() == nil {
			t.Errorf("FinishWarming without BeginWarming did not panic")
		}
	}()
	c.Invokers[0].FinishWarming(c.Intern("f"), 0)
}

func TestHomeInvokerDeterministic(t *testing.T) {
	c := testCluster(t)
	a := c.HomeInvoker("app/0/deblur")
	b := c.HomeInvoker("app/0/deblur")
	if a != b {
		t.Errorf("home invoker not stable")
	}
	// Different keys should spread (at least two distinct homes among many keys).
	seen := make(map[int]bool)
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[c.HomeInvoker(k).ID] = true
	}
	if len(seen) < 2 {
		t.Errorf("hashing does not spread: %v", seen)
	}
}

func TestWarmInvokersAndMostFree(t *testing.T) {
	c := testCluster(t)
	fn := c.Intern("f")
	c.Invokers[3].AddWarm(fn, 0)
	c.Invokers[7].AddWarm(fn, 0)
	warm := c.WarmInvokers(fn, time.Second)
	if len(warm) != 2 || warm[0].ID != 3 || warm[1].ID != 7 {
		ids := []int{}
		for _, w := range warm {
			ids = append(ids, w.ID)
		}
		t.Errorf("warm invokers = %v", ids)
	}
	// MostFree prefers the node with more free GPU.
	if err := c.Invokers[0].Acquire(units.Resources{CPU: 1, GPU: 5}, 0); err != nil {
		t.Fatal(err)
	}
	mf := c.MostFree()
	if mf.ID == 0 {
		t.Errorf("MostFree chose the loaded node")
	}
}

func TestUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := MustNew(cfg)
	inv := c.Invokers[0]
	r := units.Resources{CPU: 8, GPU: 7} // half CPU, all GPU
	if err := inv.Acquire(r, 0); err != nil {
		t.Fatal(err)
	}
	inv.Release(r, 10*time.Second)
	cpu, gpu := c.Utilization(20 * time.Second)
	if cpu < 0.24 || cpu > 0.26 {
		t.Errorf("cpu util = %v, want 0.25", cpu)
	}
	if gpu < 0.49 || gpu > 0.51 {
		t.Errorf("gpu util = %v, want 0.5", gpu)
	}
}

func TestResourceConservationProperty(t *testing.T) {
	// Random acquire/release sequences never let used go negative or
	// exceed capacity, and free+used == capacity throughout.
	f := func(ops []uint8) bool {
		cfg := DefaultConfig()
		cfg.Nodes = 1
		c := MustNew(cfg)
		inv := c.Invokers[0]
		var held []units.Resources
		now := time.Duration(0)
		for _, op := range ops {
			now += time.Millisecond
			r := units.Resources{CPU: units.VCPU(op % 5), GPU: units.VGPU(op % 3)}
			if op%2 == 0 && inv.CanFit(r) {
				if err := inv.Acquire(r, now); err != nil {
					return false
				}
				held = append(held, r)
			} else if len(held) > 0 {
				inv.Release(held[len(held)-1], now)
				held = held[:len(held)-1]
			}
			free := inv.Free()
			if !free.NonNegative() || !free.Fits(inv.Capacity) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntegrateTimeRegressionPanics(t *testing.T) {
	// Out-of-order ledger timestamps are scheduler bugs; silently skipping
	// the window (the seed behavior) under-counted the utilization
	// integrals. The ledger must panic like it does for over-release.
	c := testCluster(t)
	inv := c.Invokers[0]
	if err := inv.Acquire(units.Resources{CPU: 1, GPU: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("time-regressed Release did not panic")
		}
	}()
	inv.Release(units.Resources{CPU: 1, GPU: 1}, 500*time.Millisecond)
}

func TestWarmPoolTimeRegressionPanics(t *testing.T) {
	c := testCluster(t)
	inv := c.Invokers[0]
	fn := c.Intern("f")
	inv.AddWarm(fn, 2*time.Second)
	defer func() {
		if recover() == nil {
			t.Errorf("time-regressed AddWarm did not panic")
		}
	}()
	inv.AddWarm(fn, time.Second)
}

func TestInternAndFnName(t *testing.T) {
	c := testCluster(t)
	a := c.Intern("deblur")
	b := c.Intern("super-res")
	if a == b {
		t.Fatalf("distinct names share FnID %d", a)
	}
	if c.Intern("deblur") != a {
		t.Errorf("re-intern changed the handle")
	}
	if c.FnName(a) != "deblur" || c.FnName(b) != "super-res" {
		t.Errorf("FnName round-trip broken: %q, %q", c.FnName(a), c.FnName(b))
	}
	if c.NumFns() != 2 {
		t.Errorf("NumFns = %d, want 2", c.NumFns())
	}
}

func TestUnresolvedFnIDPanics(t *testing.T) {
	c := testCluster(t)
	defer func() {
		if recover() == nil {
			t.Errorf("NoFn handle did not panic")
		}
	}()
	c.Invokers[0].AddWarm(NoFn, 0)
}

func TestForeignFnIDPanics(t *testing.T) {
	// A positive handle this cluster's interner never assigned (e.g. one
	// interned on another cluster) must panic too, not silently resolve.
	c := testCluster(t)
	c.Intern("f")
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range FnID did not panic")
		}
	}()
	c.MostFreeNotWarming(FnID(7))
}

func TestTotalCapacityAndFree(t *testing.T) {
	c := testCluster(t)
	if free := c.TotalFree(); free.CPU != 256 || free.GPU != 112 {
		t.Errorf("fresh cluster free = %v, want the full 256 vCPU / 112 vGPU", free)
	}
}
