package cluster

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// bench256 builds a 256-node cluster with a sprinkling of load and warm
// containers, the shape of the scale scenario's placement queries.
func bench256(b *testing.B) *Cluster {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 256
	c := MustNew(cfg)
	fnA := c.Intern("fn-a")
	for i, inv := range c.Invokers {
		if i%3 == 0 {
			if err := inv.Acquire(units.Resources{CPU: 4, GPU: 2}, 0); err != nil {
				b.Fatal(err)
			}
		}
		if i%7 == 0 {
			inv.AddWarm(fnA, 0)
		}
	}
	return c
}

// BenchmarkMostFree256 measures the cold-invoker fallback query on a
// 256-node fleet (O(nodes) scan at seed, bucket walk now).
func BenchmarkMostFree256(b *testing.B) {
	c := bench256(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.MostFree() == nil {
			b.Fatal("no invoker")
		}
	}
}

// BenchmarkWarmInvokers256 measures the warm-pool lookup on a 256-node
// fleet where ~1/7 of the nodes hold a warm container.
func BenchmarkWarmInvokers256(b *testing.B) {
	c := bench256(b)
	fnA := c.Intern("fn-a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.WarmInvokers(fnA, time.Second)) == 0 {
			b.Fatal("no warm invokers")
		}
	}
}

// BenchmarkHasBusyOrWarming256 measures the defer-signal query (O(nodes)
// scan at seed, counter read now).
func BenchmarkHasBusyOrWarming256(b *testing.B) {
	c := bench256(b)
	fnB := c.Intern("fn-b")
	c.Invokers[200].StartTask(fnB, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.HasBusyOrWarming(fnB) {
			b.Fatal("lost the busy container")
		}
	}
}

// BenchmarkStartFinishWarm256 measures the steady warm-container cycle on
// a 256-node fleet: a warm StartTask hit followed by FinishTask. This is
// the dispatch/complete hot pair of every simulated task (map-keyed pools
// with scan pruning before the expiry-wheel engine; 0 allocs now, pinned
// by alloc_test.go).
func BenchmarkStartFinishWarm256(b *testing.B) {
	c := bench256(b)
	fnA := c.Intern("fn-a")
	inv := c.Invokers[0] // holds a warm container (0 % 7 == 0)
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		if !inv.StartTask(fnA, now) {
			b.Fatal("warm hit expected")
		}
		inv.FinishTask(fnA, now)
	}
}

// BenchmarkHasIdleWarm256 measures the warm-presence probe every placement
// decision issues (per-call pool scan at seed, ring-head read now).
func BenchmarkHasIdleWarm256(b *testing.B) {
	c := bench256(b)
	fnA := c.Intern("fn-a")
	inv := c.Invokers[0]
	// A fixed timestamp keeps the container inside its keep-alive for any
	// b.N; the probe does identical work whether or not time advances, as
	// long as nothing expires.
	now := time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !inv.HasIdleWarm(fnA, now) {
			b.Fatal("warm container vanished")
		}
	}
}

// BenchmarkWarmPoolChurn256 measures expiry under maximum churn: each
// iteration installs a container and advances past its keep-alive, so
// every probe prunes. Amortized O(1) per container with the expiry ring
// (the seed engine re-scanned the surviving pool on every call).
func BenchmarkWarmPoolChurn256(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 256
	cfg.KeepAlive = time.Millisecond
	c := MustNew(cfg)
	fn := c.Intern("fn-churn")
	inv := c.Invokers[0]
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.AddWarm(fn, now)
		now += cfg.KeepAlive + time.Microsecond
		if inv.HasIdleWarm(fn, now) {
			b.Fatal("container outlived its keep-alive")
		}
	}
}

// BenchmarkFirstWarmFitNoFit256 measures the warm-first placement probe
// when every invoker of a 256-node fleet holds a warm container and none
// fits — the overloaded scale-replan4 shape, where most Place calls find
// no fit. Fifteen of every sixteen invokers have no free GPU; the rest have
// free GPU but no free CPU, so the GPU mask leaves a sixteenth of the fleet
// for the per-invoker CPU check.
func BenchmarkFirstWarmFitNoFit256(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 256
	c := MustNew(cfg)
	fn := c.Intern("fn-a")
	for i, inv := range c.Invokers {
		inv.AddWarm(fn, 0)
		hold := units.Resources{CPU: 2, GPU: cfg.NodeGPU}
		if i%16 == 0 {
			hold = units.Resources{CPU: cfg.NodeCPU, GPU: 1}
		}
		if err := inv.Acquire(hold, 0); err != nil {
			b.Fatal(err)
		}
	}
	res := units.Resources{CPU: 2, GPU: 2}
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Nanosecond
		if c.FirstWarmFit(fn, now, res) != nil {
			b.Fatal("an invoker fits")
		}
	}
}

// BenchmarkContainersFor2048 measures the pre-warm planner's pool-size
// query on the planet tier's 2048-node fleet with fn warm on every fifth
// invoker (410 of them). Time advances every call, as it does between
// controller passes, but no container expires.
func BenchmarkContainersFor2048(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 2048
	c := MustNew(cfg)
	fn := c.Intern("fn-a")
	warm := 0
	for i, inv := range c.Invokers {
		if i%5 == 0 {
			inv.AddWarm(fn, 0)
			warm++
		}
	}
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Nanosecond
		if c.ContainersFor(fn, now) != warm {
			b.Fatal("warm pool changed size")
		}
	}
}
