package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/units"
)

// Config shapes a cluster.
type Config struct {
	// Nodes is the invoker count.
	Nodes int
	// NodeCPU and NodeGPU are each invoker's capacity.
	NodeCPU units.VCPU
	NodeGPU units.VGPU
	// NodeShapes, when non-empty, gives each invoker its own capacity
	// (heterogeneous hardware, Appendix A); it overrides Nodes/NodeCPU/
	// NodeGPU. Schedulers need no changes: placement already reasons
	// about per-invoker free capacity.
	NodeShapes []units.Resources
	// KeepAlive is the idle-container keep-alive (OpenWhisk: 10 minutes).
	KeepAlive time.Duration
	// LocalTransfer is the per-hop latency of passing data between stages
	// co-located on one invoker (local filesystem).
	LocalTransfer time.Duration
	// RemoteBandwidthMBps and RemoteLatency model cross-invoker transfer
	// through remote storage.
	RemoteBandwidthMBps float64
	RemoteLatency       time.Duration
	// Topology, when enabled, replaces the flat TransferTime model with
	// per-invoker PCIe/NIC links under fair-share contention (see Fabric).
	// The zero value keeps the historical flat model byte for byte.
	Topology Topology
}

// DefaultConfig returns the paper's testbed shape (§4, Table 2).
func DefaultConfig() Config {
	return Config{
		Nodes:               16,
		NodeCPU:             16,
		NodeGPU:             7,
		KeepAlive:           10 * time.Minute,
		LocalTransfer:       2 * time.Millisecond,
		RemoteBandwidthMBps: 80,
		RemoteLatency:       5 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.NodeShapes) > 0 {
		for i, r := range c.NodeShapes {
			if r.CPU < 1 || r.GPU < 1 {
				return fmt.Errorf("cluster: node shape %d must be positive, got %v", i, r)
			}
		}
	} else {
		if c.Nodes < 1 {
			return fmt.Errorf("cluster: need at least 1 node, got %d", c.Nodes)
		}
		if c.NodeCPU < 1 || c.NodeGPU < 1 {
			return fmt.Errorf("cluster: node capacity must be positive, got %d vCPU %d vGPU", c.NodeCPU, c.NodeGPU)
		}
	}
	switch {
	case c.KeepAlive < 0:
		return fmt.Errorf("cluster: negative keep-alive")
	case c.RemoteBandwidthMBps <= 0:
		return fmt.Errorf("cluster: remote bandwidth must be positive")
	}
	return c.Topology.Validate()
}

// Shapes returns the per-invoker capacities the config describes.
func (c Config) Shapes() []units.Resources {
	if len(c.NodeShapes) > 0 {
		return c.NodeShapes
	}
	out := make([]units.Resources, c.Nodes)
	for i := range out {
		out[i] = units.Resources{CPU: c.NodeCPU, GPU: c.NodeGPU}
	}
	return out
}

// TransferTime returns the stage-to-stage data transfer latency for a
// payload of sizeMB, depending on whether producer and consumer share an
// invoker (§3.4: local filesystem vs remote storage).
func (c Config) TransferTime(sizeMB float64, sameNode bool) time.Duration {
	if sizeMB <= 0 {
		return 0
	}
	if sameNode {
		return c.LocalTransfer
	}
	secs := sizeMB / c.RemoteBandwidthMBps
	return c.RemoteLatency + time.Duration(secs*float64(time.Second))
}

// Cluster is the set of invokers plus the incrementally maintained
// placement indexes over them (see fleetIndex) and the fleet-wide function
// interner: every container API is keyed by dense FnID handles resolved
// once via Intern (queue.Set.Bind does it for a scenario's queues).
type Cluster struct {
	Cfg      Config
	Invokers []*Invoker
	// Fabric is the data-movement fabric behind Cfg.Topology, nil when the
	// topology is disabled — the nil check keeps every transfer-model
	// branch off the historical hot path.
	Fabric *Fabric
	idx    *fleetIndex
	fns    interner
}

// New builds a cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shapes := cfg.Shapes()
	c := &Cluster{Cfg: cfg, idx: newFleetIndex(shapes), Fabric: NewFabric(cfg, len(shapes))}
	for i, shape := range shapes {
		c.Invokers = append(c.Invokers, newInvoker(i, shape, cfg.KeepAlive, c.idx))
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Intern resolves a function name to its dense fleet-wide handle,
// assigning the next free FnID on first use. Handles are stable for the
// cluster's lifetime and index every per-function structure, so callers
// resolve names once at construction and never on the scheduling path.
func (c *Cluster) Intern(name string) FnID {
	id := c.fns.intern(name)
	c.idx.growFns(len(c.fns.names))
	return id
}

// FnName returns the name behind an interned handle.
func (c *Cluster) FnName(fn FnID) string {
	c.idx.checkFn(fn)
	return c.fns.names[fn]
}

// NumFns returns the number of interned functions.
func (c *Cluster) NumFns() int { return len(c.fns.names) }

// HomeInvoker returns the deterministic "home invoker" of a key — the
// OpenWhisk hash of (namespace, action) that concentrates a function's
// instances on one node for warm starts (§2).
func (c *Cluster) HomeInvoker(key string) *Invoker {
	return c.Invokers[int(rng.Hash64(key)%uint64(len(c.Invokers)))]
}

// TotalFree returns the summed free resources. Down invokers contribute
// nothing: their capacity is unreachable until they recover.
func (c *Cluster) TotalFree() units.Resources {
	var r units.Resources
	for _, inv := range c.Invokers {
		if inv.Up() {
			r = r.Add(inv.Free())
		}
	}
	return r
}

// UpInvokers counts the invokers currently serving (not crashed).
func (c *Cluster) UpInvokers() int {
	n := 0
	for _, inv := range c.Invokers {
		if inv.Up() {
			n++
		}
	}
	return n
}

// pruneWarmFleet prunes fn's expired warm containers across the fleet, so
// that afterwards the warm bitset holds exactly the invokers with a live
// idle container of fn and warmTotal counts exactly those containers.
// While now is below the index's earliest-deadline bound nothing can have
// expired and it returns at once; otherwise it prunes every ring in the
// warm bitset, in ascending ID, and stores the exact earliest surviving
// deadline as the new bound. Either way the bound ends above now, so
// repeat queries at one timestamp are O(1) — unless a container is pushed
// that already expired at now (KeepAlive == 0), which lowers the bound to
// now and makes the next query prune again.
func (c *Cluster) pruneWarmFleet(fn FnID, now time.Duration) {
	x := c.idx
	if now < x.warmNext[fn] {
		return
	}
	next := time.Duration(math.MaxInt64)
	for w, v := range x.warmSet[fn] {
		// v is a copy of the word: a prune that empties a ring clears only
		// the current invoker's bit, which the copy already dropped.
		for v != 0 {
			inv := c.Invokers[w*64+bits.TrailingZeros64(v)]
			v &= v - 1
			inv.pruneWarm(fn, now)
			if r := &inv.warm[fn]; r.n > 0 {
				next = min(next, r.front())
			}
		}
	}
	x.warmNext[fn] = next
}

// WarmInvokers returns invokers holding an idle warm container for the
// function at time now, in ascending ID order. Only invokers in the warm
// index are visited (after the fleet prune), not the whole fleet.
func (c *Cluster) WarmInvokers(fn FnID, now time.Duration) []*Invoker {
	c.idx.checkFn(fn)
	c.pruneWarmFleet(fn, now)
	var out []*Invoker
	for w, v := range c.idx.warmSet[fn] {
		for v != 0 {
			out = append(out, c.Invokers[w*64+bits.TrailingZeros64(v)])
			v &= v - 1
		}
	}
	return out
}

// FirstWarmFit returns the lowest-ID invoker holding an idle warm container
// for fn at now whose free capacity fits res, or nil. It is the allocation-
// free fast path of the dispatch policies' "any warm invoker" step: after
// the fleet prune, each non-zero warm word is masked to the invokers with
// enough free GPU before any invoker is touched, and only those candidates
// are checked for CPU.
func (c *Cluster) FirstWarmFit(fn FnID, now time.Duration, res units.Resources) *Invoker {
	c.idx.checkFn(fn)
	c.pruneWarmFleet(fn, now)
	for w, v := range c.idx.warmSet[fn] {
		if v == 0 {
			continue
		}
		for v &= c.idx.fitMask(int(res.GPU), w); v != 0; v &= v - 1 {
			if inv := c.Invokers[w*64+bits.TrailingZeros64(v)]; inv.CanFit(res) {
				return inv
			}
		}
	}
	return nil
}

// HasBusyOrWarming reports whether any invoker currently runs or warms a
// container of fn — the signal that waiting for a container beats paying a
// cold start. O(1) via the fleet index.
func (c *Cluster) HasBusyOrWarming(fn FnID) bool {
	c.idx.checkFn(fn)
	return c.idx.busyTotal[fn] > 0 || c.idx.warmingInv[fn] > 0
}

// ContainersFor counts every container of fn at now — busy, idle-warm
// (pruned at now) and one per invoker with an in-flight pre-warm — the
// fleet-wide pool size the pre-warm planners compare against demand. O(1)
// after the fleet prune, which is itself O(1) until a deadline passes.
func (c *Cluster) ContainersFor(fn FnID, now time.Duration) int {
	c.idx.checkFn(fn)
	c.pruneWarmFleet(fn, now)
	return c.idx.busyTotal[fn] + c.idx.warmingInv[fn] + c.idx.warmTotal[fn]
}

// MostFree returns the invoker with the largest free GPU capacity (ties
// broken by free CPU, then lowest ID) — the cold-invoker fallback of
// ESG_Dispatch (§3.4).
func (c *Cluster) MostFree() *Invoker {
	id := c.idx.mostFree()
	if id < 0 {
		return nil
	}
	return c.Invokers[id]
}

// MostFreeNotWarming returns the invoker with the largest free GPU capacity
// (ties broken by lowest ID) among those not already warming a container of
// fn, or nil when every invoker is — the background warm-up target policy.
func (c *Cluster) MostFreeNotWarming(fn FnID) *Invoker {
	c.idx.checkFn(fn)
	id := c.idx.mostFreeExcept(c.idx.warmingSet[fn])
	if id < 0 {
		return nil
	}
	return c.Invokers[id]
}

// BestFit returns the fitting invoker minimizing leftover GPU, then
// leftover CPU, then ID (the INFless/FaST-GShare fragmentation-minimizing
// policy), or nil when no invoker fits res.
func (c *Cluster) BestFit(res units.Resources) *Invoker {
	id := c.idx.bestFit(res)
	if id < 0 {
		return nil
	}
	return c.Invokers[id]
}

// Utilization returns the cluster-wide time-averaged CPU and GPU
// utilization in [0,1] up to time now.
func (c *Cluster) Utilization(now time.Duration) (cpu, gpu float64) {
	var cpuInt, gpuInt float64
	var cpuCap, gpuCap float64
	for _, inv := range c.Invokers {
		ci, gi := inv.usageIntegral(now)
		cpuInt += ci
		gpuInt += gi
		cpuCap += float64(inv.Capacity.CPU)
		gpuCap += float64(inv.Capacity.GPU)
	}
	if now <= 0 {
		return 0, 0
	}
	t := float64(now)
	return cpuInt / (cpuCap * t), gpuInt / (gpuCap * t)
}
