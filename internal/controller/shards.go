package controller

import (
	"sync"

	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
)

// planShards is the controller's within-cell parallelism coordinator.
//
// The key structural fact it exploits: every scheduler's Plan is
// fleet-independent — it reads the queue's coordinates (app, stage, length,
// head age) and the static profile tables, never invoker state (only Place
// does that). And during one controller pass, a queue's contents change
// only when the pass itself dispatches from it: arrivals and completions
// are engine events, which cannot run mid-pass. So at the top of a pass,
// the first Plan of every ready queue can be computed speculatively, in
// parallel, before the sequential scan consumes them.
//
// Determinism contract ("merge"): the pass consumes plans in the exact
// order the sequential controller would have computed them, and a
// speculative plan is used only when the queue's (length, head) still
// match its speculation snapshot — in which case, by the
// sched.ConcurrentPlanner contract, it is byte-identical to the inline
// call it replaces. Anything else (second and later plans of a draining
// queue, a queue that changed, a scheduler without the marker) is planned
// inline. Plan-consumption side effects the artifacts can see — the
// RecordPlan counters, dispatch decisions, overhead charges — therefore
// happen at consumption time in sequential order, and the emulation's
// event stream is byte-for-byte the sequential one. Only the schedulers'
// internal memo counters may differ (speculated-but-unconsumed plans still
// touch their memo layers); no artifact embeds those.
//
// Work is partitioned by q.AppIndex modulo the shard count. That keeps one
// application's queues — which share dominator distributions, cache
// signatures and (typically) plan-cache interval keys — on a single worker
// in canonical queue order, so a scheduler's per-group memo state evolves
// in the same order as under the sequential controller.
type planShards struct {
	shards int

	// slots[qID] holds the speculative plan of one queue for the current
	// pass; filled lists the slot indexes populated this pass so reset is
	// O(filled), not O(queues).
	slots  []specSlot
	filled []int

	// work[s] is the reusable per-shard queue list of the current pass.
	work [][]*queue.AFW
}

// specSlot is one queue's speculative plan with its validity snapshot.
type specSlot struct {
	ready  bool
	qlen   int
	headID int
	plan   sched.Plan
}

func newPlanShards(shards, queues int) *planShards {
	return &planShards{
		shards: shards,
		slots:  make([]specSlot, queues),
		work:   make([][]*queue.AFW, shards),
	}
}

// headInstanceID identifies the queue's oldest job (-1 when empty); with
// the queue length it pins the inputs Plan may depend on.
func headInstanceID(q *queue.AFW) int {
	if j := q.Oldest(); j != nil {
		return j.Instance.ID
	}
	return -1
}

// speculate pre-plans every queue the upcoming pass will plan, in
// parallel across shards. It must run at the top of a pass, before any
// dispatch mutates a queue. The engine is frozen for the window: plan
// workers have no business scheduling events.
func (c *Controller) speculate() {
	sp := c.shards
	if sp == nil {
		return
	}
	for _, i := range sp.filled {
		sp.slots[i] = specSlot{}
	}
	sp.filled = sp.filled[:0]
	for s := range sp.work {
		sp.work[s] = sp.work[s][:0]
	}

	// Collect exactly the queues the sequential pass would plan first-try,
	// applying its own skip rules (unchanged deferred queues, recheck
	// entries whose attempt key is stale). The rules read only state that
	// is constant until the queue itself is processed, so the filter
	// matches what the scan will decide.
	for _, q := range c.queues.Queues {
		if q.Empty() {
			continue
		}
		key := c.attemptKey(q)
		if key == c.lastAttempt[q.ID] && !c.deferWindowExpired(q) {
			if c.inRecheck[q.ID] || c.lastOutcome[q.ID] == deferred {
				continue
			}
		}
		sp.work[q.AppIndex%sp.shards] = append(sp.work[q.AppIndex%sp.shards], q)
	}

	now := c.engine.Now()
	c.engine.Freeze("parallel plan speculation")
	var wg sync.WaitGroup
	for s := range sp.work {
		qs := sp.work[s]
		if len(qs) == 0 {
			continue
		}
		wg.Add(1)
		go func(qs []*queue.AFW) {
			defer wg.Done()
			for _, q := range qs {
				plan := c.scheduler.Plan(c.env, q, now)
				sp.slots[q.ID] = specSlot{
					ready:  true,
					qlen:   q.Len(),
					headID: headInstanceID(q),
					plan:   plan,
				}
			}
		}(qs)
	}
	wg.Wait()
	c.engine.Thaw()
	for _, qs := range sp.work {
		for _, q := range qs {
			sp.filled = append(sp.filled, q.ID)
		}
	}
}

// planFor returns the scheduler's plan for q at the current pass time,
// consuming the speculative slot when it is still valid — the queue's
// length and head are unchanged since speculation — and falling back to an
// inline call otherwise. Consumption order is the sequential scan order,
// so the plans the pass acts on are exactly the sequential controller's.
func (c *Controller) planFor(q *queue.AFW) sched.Plan {
	if sp := c.shards; sp != nil {
		slot := &sp.slots[q.ID]
		if slot.ready && slot.qlen == q.Len() && slot.headID == headInstanceID(q) {
			plan := slot.plan
			*slot = specSlot{}
			return plan
		}
	}
	return c.scheduler.Plan(c.env, q, c.engine.Now())
}
