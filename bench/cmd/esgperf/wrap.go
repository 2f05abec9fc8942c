package main

import (
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	esgworkload "github.com/esg-sched/esg/internal/workload"
)

// subBits splits every power-of-two octave of the histogram into 1<<subBits
// linear sub-buckets (≈12 % resolution), fine enough that interpolated
// percentiles are not pinned to bucket edges.
const subBits = 3

// hist is a fixed log-linear histogram of durations in nanoseconds. It is
// updated with atomics, so concurrent planners record without locks, and
// observing allocates nothing.
type hist struct {
	counts [(64 - subBits + 1) << subBits]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	sub := int(ns>>(e-subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits + sub
}

// bucketRange returns the lower bound and width of bucket b in ns.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits + subBits - 1
	sub := b & (1<<subBits - 1)
	w := float64(uint64(1) << (e - subBits))
	return float64(1<<subBits+sub) * w, w
}

func (h *hist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds it. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for b := range h.counts {
		c := float64(h.counts[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum)/c
		}
		cum += c
	}
	return float64(h.max.Load())
}

// merge adds o's observations to h; both must be quiescent.
func (h *hist) merge(o *hist) {
	for b := range o.counts {
		h.counts[b].Add(o.counts[b].Load())
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}

// cellProbe records one cell's timings. The cell's worker goroutine
// writes the plain fields and the harness reads them after Resolve
// returns; the atomic fields are also written by concurrent planners.
type cellProbe struct {
	key       string
	makeAt    time.Duration // since the harness started
	firstNext time.Duration
	gen       time.Duration // input generation
	generated int           // requests the source yielded

	// Traced runs only.
	last       atomic.Int64 // end of the cell's latest wrapped call, ns since start
	plan       hist
	place      hist
	next       hist
	candidates atomic.Int64
	fits       atomic.Int64
}

// timedScheduler times every Plan and Place call of the scheduler it
// wraps. The wrapper types below add exactly the optional interfaces the
// inner scheduler implements: a wrapper that dropped sched.PlanCaching or
// sched.ConcurrentPlanner would silently turn the plan cache or shard
// speculation off, and the traced run would measure another program.
type timedScheduler struct {
	inner sched.Scheduler
	p     *cellProbe
	start time.Time
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	begin := time.Now()
	plan := t.inner.Plan(env, q, now)
	end := time.Now()
	t.p.plan.observe(end.Sub(begin))
	t.p.candidates.Add(int64(len(plan.Candidates)))
	t.p.last.Store(int64(end.Sub(t.start)))
	return plan
}

func (t *timedScheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	begin := time.Now()
	inv := t.inner.Place(env, q, jobs, cfg, now)
	end := time.Now()
	t.p.place.observe(end.Sub(begin))
	if inv != nil {
		t.p.fits.Add(1)
	}
	t.p.last.Store(int64(end.Sub(t.start)))
	return inv
}

func (t *timedScheduler) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return t.inner.MinConfig(env, q)
}

type timedCaching struct {
	*timedScheduler
	pc sched.PlanCaching
}

func (t timedCaching) EnablePlanCache(capacity int, granularity time.Duration) {
	t.pc.EnablePlanCache(capacity, granularity)
}

func (t timedCaching) PlanCacheStats() sched.PlanCacheStats { return t.pc.PlanCacheStats() }

type timedConcurrent struct{ *timedScheduler }

func (timedConcurrent) ConcurrentPlanOK() {}

type timedCachingConcurrent struct{ timedCaching }

func (timedCachingConcurrent) ConcurrentPlanOK() {}

// wrapScheduler returns s behind a timing wrapper with the same optional
// interfaces as s.
func wrapScheduler(s sched.Scheduler, p *cellProbe, start time.Time) sched.Scheduler {
	t := &timedScheduler{inner: s, p: p, start: start}
	pc, caching := s.(sched.PlanCaching)
	_, concurrent := s.(sched.ConcurrentPlanner)
	switch {
	case caching && concurrent:
		return timedCachingConcurrent{timedCaching{t, pc}}
	case caching:
		return timedCaching{t, pc}
	case concurrent:
		return timedConcurrent{t}
	default:
		return t
	}
}

// probedSource marks the cell's first Next, which ends its set-up, counts
// the requests it yields and, in traced runs, times every Next.
type probedSource struct {
	esgworkload.Source
	h       *harness
	p       *cellProbe
	started bool
}

func (s *probedSource) Next() (esgworkload.Request, bool) {
	if !s.started {
		s.started = true
		s.p.firstNext = time.Since(s.h.start)
	}
	if !s.h.traced {
		req, ok := s.Source.Next()
		if ok {
			s.p.generated++
		}
		return req, ok
	}
	begin := time.Now()
	req, ok := s.Source.Next()
	end := time.Now()
	s.p.next.observe(end.Sub(begin))
	s.p.last.Store(int64(end.Sub(s.h.start)))
	if ok {
		s.p.generated++
	}
	return req, ok
}
