// Package simulate is the discrete-event engine driving the serverless
// platform emulation: an event heap ordered by simulated time with
// deterministic FIFO tie-breaking, so a scenario replays identically for a
// given seed.
package simulate

import (
	"time"
)

// Engine is a single-threaded discrete-event simulator. Events are stored
// by value in a manually-sifted binary heap: scheduling an event never
// boxes it through an interface, so the steady-state dispatch path
// (At/After + Step) is allocation-free apart from the caller's closure.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue []event
	// Processed counts executed events (diagnostics).
	Processed uint64
	// Transfers counts data-movement events scheduled via Transfer
	// (diagnostics; zero whenever the transfer model is disabled).
	Transfers uint64
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at absolute simulated time t. Events scheduled in
// the past run at the current time (never before it).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// ReserveSeq skips the next n tie-break sequence numbers, handing them to
// the caller for AtSeq. The controller reserves one slot per workload
// request before any other event is scheduled: arrivals pulled lazily from
// a streaming source then tie-break exactly as if the whole trace had been
// scheduled up front, so streaming and materialized runs replay the same
// event order bit for bit.
func (e *Engine) ReserveSeq(n uint64) uint64 {
	first := e.seq + 1
	e.seq += n
	return first
}

// AtSeq schedules fn at absolute time t with an explicit tie-break
// sequence previously obtained from ReserveSeq. The heap order is total on
// (time, seq), so when the event is inserted is irrelevant — only the
// reserved slot decides how it ties.
func (e *Engine) AtSeq(t time.Duration, seq uint64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(event{at: t, seq: seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Transfer schedules fn to run when a data movement of duration d
// completes: the handoff occupies time on the event heap like any other
// event, and the engine counts it so runs can assert how much of the
// schedule was spent moving data. Ordering semantics are exactly After's.
func (e *Engine) Transfer(d time.Duration, fn func()) {
	e.Transfers++
	e.After(d, fn)
}

// Step executes the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.Processed++
	ev.fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline, leaving later events
// queued, and advances the clock to the deadline.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before is the heap order: simulated time, then scheduling sequence. The
// order is total, so the pop sequence is independent of the heap's internal
// sift details.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up.
func (e *Engine) push(ev event) {
	h := append(e.queue, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	e.queue = h
}

// pop removes and returns the earliest event, clearing the vacated slot so
// the heap never retains a completed event's closure.
func (e *Engine) pop() event {
	h := e.queue
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].before(&h[j1]) {
			j = j2
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	ev := h[n]
	h[n].fn = nil
	e.queue = h[:n]
	return ev
}
