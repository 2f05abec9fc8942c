// Package queue implements the paper's job/task model (§3.1–3.2):
// workflow instances (one end-to-end application request), jobs (one
// invocation of one stage for one instance), batched tasks, and the
// application-function-wise (AFW) job queues that group pending jobs of the
// same (application, function) pair on the Controller.
package queue

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// Instance is one end-to-end request of an application: it owns one job per
// stage and tracks completion against its SLO.
type Instance struct {
	ID int
	// AppIndex identifies the application within the scenario.
	AppIndex int
	App      *workflow.App
	// Arrival is when the request entered the system.
	Arrival time.Duration
	// SLO is the end-to-end latency objective.
	SLO time.Duration
	// Warmup marks instances excluded from SLO/cost metrics (the
	// measurement warm-up window).
	Warmup bool

	// stageInvoker holds the invoker that ran each stage, -1 while
	// pending; it doubles as the per-stage completion flag.
	stageInvoker []int32
	remaining    int

	// Done and CompletedAt are set when the last stage finishes.
	Done        bool
	CompletedAt time.Duration
	// Failed marks an instance abandoned under fault injection: one of its
	// jobs exhausted the retry budget, so the workflow can never complete.
	// Mutually exclusive with Done.
	Failed bool
	// FailedAt is when the instance was abandoned (valid once Failed).
	FailedAt time.Duration

	// Cost accumulates the instance's share of every task it rode in.
	Cost units.Money
}

// AddCost attributes a share of a task's cost to the instance.
func (in *Instance) AddCost(c units.Money) { in.Cost += c }

// NewInstance creates an instance with all stages pending.
func NewInstance(id, appIndex int, app *workflow.App, arrival, slo time.Duration) *Instance {
	inst := &Instance{
		ID:           id,
		AppIndex:     appIndex,
		App:          app,
		Arrival:      arrival,
		SLO:          slo,
		stageInvoker: make([]int32, app.Len()),
		remaining:    app.Len(),
	}
	for i := range inst.stageInvoker {
		inst.stageInvoker[i] = -1
	}
	return inst
}

// Reinit recycles an instance struct for a new request, reusing the
// stage-tracking storage. Only fully-completed (Done) instances may be
// recycled: a Done instance has no live job referencing it anywhere, so the
// controller's instance pool can hand its memory to the next arrival and a
// streaming run's live instance count stays bounded by concurrency instead
// of trace length.
func (in *Instance) Reinit(id, appIndex int, app *workflow.App, arrival, slo time.Duration) {
	n := app.Len()
	si := in.stageInvoker
	if cap(si) < n {
		si = make([]int32, n)
	}
	si = si[:n]
	for i := range si {
		si[i] = -1
	}
	*in = Instance{
		ID:           id,
		AppIndex:     appIndex,
		App:          app,
		Arrival:      arrival,
		SLO:          slo,
		stageInvoker: si,
		remaining:    n,
	}
}

// StageDone reports whether the stage has completed. A stage is done
// exactly when an invoker has been recorded for it.
func (in *Instance) StageDone(stage int) bool { return in.stageInvoker[stage] >= 0 }

// StageInvoker returns the invoker that ran the stage, or -1.
func (in *Instance) StageInvoker(stage int) int { return int(in.stageInvoker[stage]) }

// CompleteStage marks a stage finished at time now on the given invoker and
// returns the stage's successors whose predecessors are now all complete
// (i.e., the next jobs to enqueue).
func (in *Instance) CompleteStage(stage, invoker int, now time.Duration) (ready []int) {
	if in.stageInvoker[stage] >= 0 {
		// DAG-accounting invariant: the controller completes each stage
		// exactly once; a repeat would corrupt the remaining-stage counter,
		// so fail loudly instead of silently double-counting.
		panic(fmt.Sprintf("instance %d: stage %d completed twice", in.ID, stage))
	}
	in.stageInvoker[stage] = int32(invoker)
	in.remaining--
	if in.remaining == 0 {
		in.Done = true
		in.CompletedAt = now
	}
	for _, succ := range in.App.Stage(stage).Succs {
		allDone := true
		for _, p := range in.App.Stage(succ).Preds {
			if in.stageInvoker[p] < 0 {
				allDone = false
				break
			}
		}
		if allDone {
			ready = append(ready, succ)
		}
	}
	return ready
}

// Latency returns the end-to-end latency (valid once Done).
func (in *Instance) Latency() time.Duration { return in.CompletedAt - in.Arrival }

// SLOHit reports whether the completed instance met its SLO.
func (in *Instance) SLOHit() bool { return in.Done && in.Latency() <= in.SLO }

// Elapsed returns how long the instance has been in the system at now.
func (in *Instance) Elapsed(now time.Duration) time.Duration { return now - in.Arrival }

// Job is one stage invocation for one instance, waiting in an AFW queue.
type Job struct {
	Instance *Instance
	Stage    int
	// EnqueuedAt is when the job entered its AFW queue.
	EnqueuedAt time.Duration
	// Attempts counts this job's failed dispatch attempts under fault
	// injection; the controller's retry policy drops the job once it
	// exceeds the attempt budget.
	Attempts int
}

// Waited returns how long the job has been queued at now.
func (j *Job) Waited(now time.Duration) time.Duration { return now - j.EnqueuedAt }

// Task is a batch of jobs dispatched as one function invocation (§3.2:
// "the set of jobs processed by an invocation of a serverless function").
type Task struct {
	Queue  *AFW
	Jobs   []*Job
	Config profile.Config
	// Invoker is the node the task was dispatched to.
	Invoker int
	// Timing, filled by the emulator.
	DispatchedAt time.Duration
	StartedAt    time.Duration // after cold start + transfer
	FinishedAt   time.Duration
	WarmStart    bool
}

// AFW is an application-function-wise job queue: pending jobs of one stage
// of one application (§3.1). The same function used by two applications
// gets two distinct AFW queues. Jobs live in a head-indexed ring: taking
// from the front advances the head instead of shifting the slice, and the
// storage is reclaimed when the queue drains (or compacted once the dead
// prefix dominates).
//
// A queued job's instance must keep its Arrival until the job leaves the
// queue: the queue indexes arrivals at Push. The controller guarantees it
// by recycling only Done instances, which have no job queued anywhere.
type AFW struct {
	// ID is the queue's index in the controller's round-robin order.
	ID       int
	AppIndex int
	App      *workflow.App
	Stage    int
	Function string
	// FnID is the cluster-interned handle of Function, resolved by
	// Set.Bind; the container APIs of the cluster layer are keyed by it.
	// It is cluster.NoFn until bound (the cluster panics on unresolved
	// handles rather than aliasing function 0).
	FnID cluster.FnID
	// Key is the precomputed home-invoker hash key of the queue (the
	// OpenWhisk (namespace, action) analogue), so the dispatch hot path
	// never re-formats it.
	Key string

	jobs []*Job
	head int
	// taken counts every job ever taken, so the job at ring index i has
	// the push position taken + i - head for as long as it is queued.
	taken int

	// arrivals is a monotone deque over the queued jobs' instance
	// arrivals, live from index arrHead on: push positions and arrivals
	// both strictly increase along it, so its front holds the earliest
	// arrival still queued. Push drops every back entry that arrived no
	// earlier than the new job: the new job leaves the queue after them,
	// so none of them can be the earliest again. A take drops the front
	// entries whose jobs left.
	arrivals []arrivalMark
	arrHead  int

	// RecheckRounds counts consecutive failed dispatch attempts while the
	// queue sits on the recheck list (§3.1: after too many rounds the
	// queue is force-dispatched with the minimum configuration).
	RecheckRounds int
}

// arrivalMark is one entry of an AFW queue's arrival deque: the push
// position of a queued job and its instance's arrival.
type arrivalMark struct {
	pos     int
	arrival time.Duration
}

// KeyFor builds the home-invoker hash key of an (application, stage) pair —
// the single source of the key format shared by NewAFW's precomputation and
// any fallback for hand-assembled queues.
func KeyFor(app *workflow.App, stage int) string {
	return fmt.Sprintf("%s/%d/%s", app.Name, stage, app.Stage(stage).Function)
}

// NewAFW creates an empty AFW queue.
func NewAFW(id, appIndex int, app *workflow.App, stage int) *AFW {
	return &AFW{
		ID:       id,
		AppIndex: appIndex,
		App:      app,
		Stage:    stage,
		Function: app.Stage(stage).Function,
		FnID:     cluster.NoFn,
		Key:      KeyFor(app, stage),
	}
}

// Push appends a job (FIFO).
func (q *AFW) Push(j *Job) {
	if j.Stage != q.Stage {
		// Routing invariant: queues are looked up by (app, stage), so a
		// mismatched job means the caller resolved the wrong queue.
		panic(fmt.Sprintf("queue %d: job for stage %d pushed to stage-%d queue", q.ID, j.Stage, q.Stage))
	}
	arrival := j.Instance.Arrival
	marks := q.arrivals
	for len(marks) > q.arrHead && marks[len(marks)-1].arrival >= arrival {
		marks = marks[:len(marks)-1]
	}
	q.arrivals = append(marks, arrivalMark{pos: q.taken + q.Len(), arrival: arrival})
	q.jobs = append(q.jobs, j)
}

// Len returns the number of pending jobs.
func (q *AFW) Len() int { return len(q.jobs) - q.head }

// Empty reports whether the queue has no jobs.
func (q *AFW) Empty() bool { return q.Len() == 0 }

// Oldest returns the head job without removing it, or nil.
func (q *AFW) Oldest() *Job {
	if q.Empty() {
		return nil
	}
	return q.jobs[q.head]
}

// OldestWait returns how long the head job has waited at now (0 if empty).
// This is Algorithm 1's "w ← the longest waiting time" input.
func (q *AFW) OldestWait(now time.Duration) time.Duration {
	if q.Empty() {
		return 0
	}
	return q.jobs[q.head].Waited(now)
}

// OldestElapsed returns the largest end-to-end elapsed time among queued
// jobs' instances (0 if empty, never negative) — the budget already
// consumed by the most urgent instance. It reads the front of the arrival
// deque, so it costs O(1) at any queue depth.
func (q *AFW) OldestElapsed(now time.Duration) time.Duration {
	if q.arrHead == len(q.arrivals) {
		return 0
	}
	return max(0, now-q.arrivals[q.arrHead].arrival)
}

// Take removes and returns the n oldest jobs in a fresh slice.
func (q *AFW) Take(n int) []*Job { return q.TakeAppend(nil, n) }

// TakeAppend removes the n oldest jobs, appends them to dst and returns it.
// Passing a recycled dst makes the dispatch loop allocation-free.
func (q *AFW) TakeAppend(dst []*Job, n int) []*Job {
	if n > q.Len() {
		// Dispatch invariant: batch sizes are clamped to the backlog before
		// any take; over-taking means a plan/queue bookkeeping bug.
		panic(fmt.Sprintf("queue %d: take %d of %d jobs", q.ID, n, q.Len()))
	}
	dst = append(dst, q.jobs[q.head:q.head+n]...)
	for i := q.head; i < q.head+n; i++ {
		q.jobs[i] = nil // release for GC; the ring keeps the slot
	}
	q.jobs, q.head = reclaim(q.jobs, q.head+n)
	q.taken += n
	for q.arrHead < len(q.arrivals) && q.arrivals[q.arrHead].pos < q.taken {
		q.arrHead++
	}
	q.arrivals, q.arrHead = reclaim(q.arrivals, q.arrHead)
	return dst
}

// reclaim is the storage rule of a head-indexed ring whose head just
// advanced: a drained ring restarts at the front of its storage, and once
// the dead prefix dominates (at least 32 slots and half the length) the
// live tail is compacted to the front, so appends stop growing the backing
// array past the live length. Vacated slots are zeroed for the GC.
func reclaim[T any](ring []T, head int) ([]T, int) {
	switch {
	case head == len(ring):
		return ring[:0], 0
	case head >= 32 && head*2 >= len(ring):
		live := copy(ring, ring[head:])
		clear(ring[live:])
		return ring[:live], 0
	}
	return ring, head
}

// Peek returns the n oldest jobs without removing them.
func (q *AFW) Peek(n int) []*Job {
	if n > q.Len() {
		n = q.Len()
	}
	return q.jobs[q.head : q.head+n]
}

// MinSLORemaining returns the tightest remaining SLO budget among queued
// jobs at now (the most urgent instance's SLO minus its elapsed time).
func (q *AFW) MinSLORemaining(now time.Duration) time.Duration {
	if q.Empty() {
		return 0
	}
	min := time.Duration(1<<63 - 1)
	for _, j := range q.jobs[q.head:] {
		rem := j.Instance.SLO - j.Instance.Elapsed(now)
		if rem < min {
			min = rem
		}
	}
	return min
}

// Set builds and indexes the AFW queues of a scenario's applications.
type Set struct {
	Queues []*AFW
	// byApp indexes queues as [appIndex][stage] — contiguous, so Get is
	// two slice loads instead of a map probe on the dispatch hot path.
	byApp [][]*AFW
}

// NewSet creates one AFW queue per (application, stage).
func NewSet(apps []*workflow.App) *Set {
	s := &Set{byApp: make([][]*AFW, len(apps))}
	for ai, app := range apps {
		s.byApp[ai] = make([]*AFW, app.Len())
		for st := 0; st < app.Len(); st++ {
			q := NewAFW(len(s.Queues), ai, app, st)
			s.Queues = append(s.Queues, q)
			s.byApp[ai][st] = q
		}
	}
	return s
}

// Bind interns every queue's function name on c and stores the resolved
// dense handles in the queues' FnID fields. Call it once after NewSet when
// the queues will drive a cluster — the scheduling hot paths then speak
// FnIDs and never resolve names again.
func (s *Set) Bind(c *cluster.Cluster) {
	for _, q := range s.Queues {
		q.FnID = c.Intern(q.Function)
	}
}

// Get returns the queue of (appIndex, stage).
func (s *Set) Get(appIndex, stage int) *AFW {
	if appIndex < 0 || appIndex >= len(s.byApp) || stage < 0 || stage >= len(s.byApp[appIndex]) {
		// Indices come from the app set the Set was built over; an
		// out-of-range lookup is a wiring bug, never user input.
		panic(fmt.Sprintf("queue: no AFW queue for app %d stage %d", appIndex, stage))
	}
	return s.byApp[appIndex][stage]
}

// TotalPending returns the number of queued jobs across all queues.
func (s *Set) TotalPending() int {
	n := 0
	for _, q := range s.Queues {
		n += q.Len()
	}
	return n
}
