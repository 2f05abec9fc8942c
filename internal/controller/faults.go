package controller

import (
	"time"

	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/units"
)

// This file is the controller's task lifecycle: every dispatched task is a
// flight, tracked on its invoker until its one event (land) completes or
// fails it. Around it sits the failure-and-recovery path: dispatch-time
// fault outcomes, invoker crash/recovery handling, and the retry policy
// (capped exponential backoff with deterministic jitter, per-job attempt
// budget). With the zero fault spec no injector exists: no fault is drawn,
// no outage is scheduled, and every flight lands as a completion.

// failKind classifies a task outcome decided at dispatch time.
type failKind uint8

const (
	failNone      failKind = iota
	failCold               // the cold start fails; the task never runs
	failTransient          // the function fails part-way through execution
	failStraggler          // straggler aborted at the re-dispatch timeout
)

// flight is one in-flight task, tracked per invoker so a crash can abort
// it. The simulation engine has no event cancellation, so the task's one
// pending event (land) holds the flight and self-suppresses via aborted
// when a crash got there first.
type flight struct {
	q          *queue.AFW
	jobs       []*queue.Job
	res        units.Resources
	invID      int
	start      time.Duration // dispatch time (resources held from here)
	held       time.Duration // cold start + input transfer + execution
	kind       failKind      // the dispatch-time fault draw
	abortAfter time.Duration // hold time before a drawn fault fires
	slot       int           // index in flights[invID], maintained on swap-delete
	aborted    bool
	// land is the flight's event callback, c.land(f). It is bound once
	// when the struct is allocated and kept across pool reuse, so tracking
	// a task allocates no closure.
	land func()
}

// newFlight tracks a dispatched task on its invoker, recycling a pooled
// flight struct when one is free.
func (c *Controller) newFlight(spec flight) *flight {
	var f *flight
	if n := len(c.flightPool); n > 0 {
		f = c.flightPool[n-1]
		c.flightPool = c.flightPool[:n-1]
	} else {
		f = &flight{}
		f.land = func() { c.land(f) }
	}
	spec.slot = len(c.flights[spec.invID])
	spec.land = f.land
	*f = spec
	c.flights[spec.invID] = append(c.flights[spec.invID], f)
	return f
}

// land handles a flight's single completion-or-failure event: a flight a
// crash already aborted is only freed; otherwise it leaves its invoker and
// either fails (the dispatch-time draw fired) or completes.
func (c *Controller) land(f *flight) {
	if f.aborted {
		c.freeFlight(f) // a crash already handled this task
		return
	}
	c.unlinkFlight(f)
	if f.kind != failNone {
		c.failTask(f)
		c.freeFlight(f)
		return
	}
	q, jobs, res := f.q, f.jobs, f.res
	c.planners[q.ID].ObserveDuration(f.held)
	c.chargeTask(jobs, res, f.held)
	inv := c.clu.Invokers[f.invID]
	f.jobs = nil
	c.freeFlight(f)
	c.complete(q, jobs, res, inv)
}

// unlinkFlight removes a flight from its invoker's in-flight list
// (swap-delete; the moved flight's slot is patched).
func (c *Controller) unlinkFlight(f *flight) {
	fl := c.flights[f.invID]
	last := len(fl) - 1
	fl[f.slot] = fl[last]
	fl[f.slot].slot = f.slot
	fl[last] = nil
	c.flights[f.invID] = fl[:last]
}

// freeFlight recycles a flight struct once its event has fired.
func (c *Controller) freeFlight(f *flight) {
	f.q = nil
	f.jobs = nil
	c.flightPool = append(c.flightPool, f)
}

// chargeTask bills a task's resource-hold time to its jobs' instances,
// split evenly. Charging happens when the task ends, not at dispatch, so an
// aborted task pays for the time it actually held and a completed one for
// its whole hold.
func (c *Controller) chargeTask(jobs []*queue.Job, res units.Resources, held time.Duration) {
	cost := c.cfg.Pricing.TaskCost(res, held)
	perJob := cost / units.Money(len(jobs))
	for _, j := range jobs {
		j.Instance.AddCost(perJob)
	}
}

// scheduleOutages seeds the run with every invoker's crash/recovery
// schedule up to the drain deadline.
func (c *Controller) scheduleOutages() {
	if c.faults == nil {
		return
	}
	for _, o := range c.faults.Outages(len(c.clu.Invokers), c.deadline) {
		o := o
		c.engine.At(o.Down, func() { c.crashInvoker(o) })
		c.engine.At(o.Up, func() { c.recoverInvoker(o) })
	}
}

// crashInvoker takes an invoker down: every in-flight task there is
// aborted (resources released, container destroyed, cost charged for the
// time actually held, jobs re-enqueued under the retry policy), then the
// cluster flushes the node's warm/warming state and evicts it from the
// placement indexes.
func (c *Controller) crashInvoker(o fault.Outage) {
	inv := c.clu.Invokers[o.Invoker]
	now := c.engine.Now()
	fl := c.flights[o.Invoker]
	lost := len(fl)
	for i, f := range fl {
		f.aborted = true // the flight's pending land event self-suppresses
		inv.Release(f.res, now)
		inv.AbortTask(f.q.FnID)
		c.running--
		heldFor := now - f.start
		c.collector.RecordTaskFault(false, false, false, heldFor)
		c.chargeTask(f.jobs, f.res, heldFor)
		c.requeueJobs(f.q, f.jobs)
		c.putJobBuf(f.jobs)
		f.jobs = nil
		fl[i] = nil
	}
	c.flights[o.Invoker] = fl[:0]
	flushed := inv.Crash(now)
	c.collector.RecordCrash(lost, flushed)
	c.faults.Note(fault.Event{At: now, Kind: fault.Crash, Invoker: o.Invoker, Detail: lost})
	c.stateVersion++
	c.requestWorkPass()
}

// recoverInvoker brings a crashed invoker back (fully free, cold pools).
func (c *Controller) recoverInvoker(o fault.Outage) {
	c.clu.Invokers[o.Invoker].Recover(c.engine.Now())
	c.collector.RecordRecovery(o.Up - o.Down)
	c.faults.Note(fault.Event{At: c.engine.Now(), Kind: fault.Recover, Invoker: o.Invoker})
	c.stateVersion++
	c.requestWorkPass()
}

// requestWorkPass schedules a pass only when there is work a pass could
// move. Crash/recovery events keep firing through the drain window after
// the last instance finished; requesting passes then would mislabel the
// run as truncated.
func (c *Controller) requestWorkPass() {
	if c.running > 0 || c.queues.TotalPending() > 0 {
		c.requestPass()
	}
}

// failTask aborts an in-flight task whose dispatch-time fault draw fired:
// resources release, the container is destroyed instead of returning warm,
// the instances pay for the time held (abortAfter), and the jobs re-enqueue
// with backoff.
func (c *Controller) failTask(f *flight) {
	kind, heldFor := f.kind, f.abortAfter
	now := c.engine.Now()
	inv := c.clu.Invokers[f.invID]
	inv.Release(f.res, now)
	inv.AbortTask(f.q.FnID)
	c.running--
	c.stateVersion++
	c.collector.RecordTaskFault(kind == failTransient, kind == failCold, kind == failStraggler, heldFor)
	c.chargeTask(f.jobs, f.res, heldFor)
	var ek fault.Kind
	switch kind {
	case failCold:
		ek = fault.ColdFail
	case failStraggler:
		ek = fault.Straggler
	default:
		ek = fault.TaskFail
	}
	c.faults.Note(fault.Event{At: now, Kind: ek, Invoker: f.invID, Detail: f.jobs[0].Instance.ID})
	c.requeueJobs(f.q, f.jobs)
	c.putJobBuf(f.jobs)
	f.jobs = nil
	c.requestWorkPass()
}

// requeueJobs applies the retry policy to the jobs of an aborted task:
// jobs within the attempt budget re-enqueue together after a capped
// exponential backoff with deterministic jitter; jobs beyond it are
// dropped and their workflow instances abandoned.
func (c *Controller) requeueJobs(q *queue.AFW, jobs []*queue.Job) {
	now := c.engine.Now()
	retry := c.getJobBuf()
	maxAttempt := 0
	for _, j := range jobs {
		if j.Instance.Failed {
			// A sibling stage already abandoned this workflow: the job is
			// orphaned and goes back to the pool.
			c.putJob(j)
			continue
		}
		j.Attempts++
		if j.Attempts > c.cfg.RetryLimit {
			c.collector.RecordDroppedJob()
			c.faults.Note(fault.Event{At: now, Kind: fault.Drop, Invoker: -1, Detail: j.Instance.ID})
			c.failInstance(j.Instance, now)
			c.putJob(j)
			continue
		}
		if j.Attempts > maxAttempt {
			maxAttempt = j.Attempts
		}
		retry = append(retry, j)
	}
	if len(retry) == 0 {
		c.putJobBuf(retry)
		return
	}
	c.collector.RecordRetries(len(retry))
	c.faults.Note(fault.Event{At: now, Kind: fault.Retry, Invoker: -1, Detail: len(retry)})
	backoff := c.backoff(maxAttempt)
	c.engine.After(backoff, func() {
		at := c.engine.Now()
		for _, j := range retry {
			j.EnqueuedAt = at
			q.Push(j)
		}
		c.putJobBuf(retry)
		c.requestPass()
	})
}

// backoff returns the capped exponential retry delay for a job's n-th
// failure, jittered deterministically from the injector's retry stream.
func (c *Controller) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBackoffCap
	if shift := uint(attempt - 1); shift < 20 {
		if b := c.cfg.RetryBackoff << shift; b < d {
			d = b
		}
	}
	return time.Duration(float64(d) * c.faults.JitterFactor())
}

// failInstance abandons a workflow instance whose job exhausted the retry
// budget. Its pending sibling jobs are left to drain (their stages may
// still run, but successors of the dropped stage can never become ready,
// so the instance can never complete).
func (c *Controller) failInstance(inst *queue.Instance, now time.Duration) {
	if inst.Failed || inst.Done {
		return
	}
	inst.Failed = true
	inst.FailedAt = now
	c.instFailed++
	c.collector.RecordFailedInstance(inst)
}

// FaultTrace renders the run's recorded fault events one per line — the
// deterministic fault-schedule artifact the golden tests compare. Empty
// without fault injection.
func (c *Controller) FaultTrace() string {
	if c.faults == nil {
		return ""
	}
	return c.faults.FormatTrace()
}
