// Package fault is the emulator's seeded fault-injection engine: it turns a
// declarative Spec (invoker MTBF/MTTR, transient task-failure rates, cold-
// start failures, straggler slowdowns) into fully deterministic fault
// schedules and per-task draws.
//
// Determinism contract: every random decision comes from dedicated
// rng.Source streams derived from the run's seed — separate from the
// controller's execution-noise stream, so enabling a zero-rate injector
// consumes nothing and a zero-fault run is byte-identical to a run without
// the injector. Per-invoker crash/recovery schedules are derived from
// (seed, invoker ID) alone, so they do not depend on fleet iteration order,
// and per-task draws are consumed in dispatch order, which the simulation
// engine already fixes across sequential/parallel/cached runs.
package fault

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/esg-sched/esg/internal/rng"
)

// Spec declares the failure model of one emulation run. The zero value
// injects nothing.
type Spec struct {
	// MTBF is each invoker's mean time between crashes (exponential;
	// 0 disables invoker churn).
	MTBF time.Duration
	// MTTR is each invoker's mean downtime after a crash (exponential;
	// defaults to 10s when MTBF is set).
	MTTR time.Duration
	// TaskFailRate is the probability a dispatched task fails part-way
	// through execution (transient function failure).
	TaskFailRate float64
	// ColdFailRate is the probability a cold container start fails before
	// the task runs.
	ColdFailRate float64
	// StragglerRate is the probability a task runs StragglerFactor× slow.
	StragglerRate float64
	// StragglerFactor is the straggler slowdown multiple (default 8, at
	// most 1e6).
	StragglerFactor float64
}

// maxStragglerFactor caps StragglerFactor so a task's slowed execution
// stays a valid time.Duration: an hour-long execution times 1e6 is about
// 114 years, inside the 292 years int64 nanoseconds hold.
const maxStragglerFactor = 1e6

// Enabled reports whether the spec injects any faults at all.
func (s Spec) Enabled() bool {
	return s.MTBF > 0 || s.TaskFailRate > 0 || s.ColdFailRate > 0 || s.StragglerRate > 0
}

// Defaulted fills the dependent defaults (MTTR, StragglerFactor) and
// returns the completed spec.
func (s Spec) Defaulted() Spec {
	if s.MTBF > 0 && s.MTTR <= 0 {
		s.MTTR = 10 * time.Second
	}
	if s.StragglerRate > 0 && s.StragglerFactor <= 1 {
		s.StragglerFactor = 8
	}
	return s
}

// Validate rejects nonsensical specs.
func (s Spec) Validate() error {
	switch {
	case s.MTBF < 0:
		return fmt.Errorf("fault: negative MTBF %v", s.MTBF)
	case s.MTTR < 0:
		return fmt.Errorf("fault: negative MTTR %v", s.MTTR)
	case s.MTTR > 0 && s.MTBF == 0:
		return fmt.Errorf("fault: MTTR %v without an MTBF (set both or neither)", s.MTTR)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"task-failure rate", s.TaskFailRate},
		{"cold-start failure rate", s.ColdFailRate},
		{"straggler rate", s.StragglerRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0,1]", p.name, p.v)
		}
	}
	if s.StragglerFactor < 0 || (s.StragglerFactor > 0 && s.StragglerFactor < 1) {
		return fmt.Errorf("fault: straggler factor %g must be >= 1 (or 0 for the default)", s.StragglerFactor)
	}
	if s.StragglerFactor > maxStragglerFactor || math.IsNaN(s.StragglerFactor) {
		return fmt.Errorf("fault: straggler factor %g must be at most %g (a slowed execution would overflow the clock)", s.StragglerFactor, maxStragglerFactor)
	}
	return nil
}

// Outage is one down/up window of one invoker's crash schedule.
type Outage struct {
	Invoker int
	Down    time.Duration // crash time
	Up      time.Duration // recovery time (Down + sampled repair)
}

// TaskFault is the fault decision for one dispatched task, drawn once at
// dispatch time so outcomes are fixed in event order.
type TaskFault struct {
	// ColdFail aborts the task during its cold start (only ever set for
	// cold starts).
	ColdFail bool
	// Fail aborts the task after FailFrac of its execution ran.
	Fail     bool
	FailFrac float64
	// Straggle inflates the execution time by the spec's StragglerFactor.
	Straggle bool
}

// Kind labels a fault-trace event.
type Kind uint8

// Fault-trace event kinds.
const (
	Crash Kind = iota
	Recover
	TaskFail
	ColdFail
	Straggler
	Retry
	Drop
)

var kindNames = [...]string{"crash", "recover", "taskfail", "coldfail", "straggler", "retry", "drop"}

func (k Kind) String() string { return kindNames[k] }

// Event is one entry of the injector's fault trace — the audit log the
// determinism golden compares across runs.
type Event struct {
	At   time.Duration
	Kind Kind
	// Invoker is the affected invoker (crash/recover/task events), or -1.
	Invoker int
	// Detail disambiguates same-time events: the lost-task count for a
	// crash, the job attempt for a retry/drop, 0 otherwise.
	Detail int
}

func (e Event) String() string {
	return fmt.Sprintf("%v %s inv=%d detail=%d", e.At, e.Kind, e.Invoker, e.Detail)
}

// Injector drives one run's fault injection. It is not safe for concurrent
// use — like the rest of a cell's state it belongs to one single-threaded
// simulation engine.
type Injector struct {
	spec  Spec
	crash *rng.Source // per-invoker schedule derivation
	task  *rng.Source // per-dispatch draws, consumed in dispatch order
	retry *rng.Source // backoff jitter draws
	trace []Event
}

// Stream-isolation constants: each injector stream is derived from the
// run seed xor a fixed tag, mirroring how the controller derives its noise
// stream, so no stream aliases another.
const (
	crashTag = 0x5FA1C3D2E4B59687
	taskTag  = 0xA7E31B5C9D2F4861
	retryTag = 0x3C8D5E2A17F4B9D6
)

// New builds an injector for spec (already Defaulted) over the run seed.
func New(spec Spec, seed uint64) *Injector {
	return &Injector{
		spec:  spec.Defaulted(),
		crash: rng.New(seed ^ crashTag),
		task:  rng.New(seed ^ taskTag),
		retry: rng.New(seed ^ retryTag),
	}
}

// Spec returns the injector's (defaulted) spec.
func (in *Injector) Spec() Spec { return in.spec }

// Outages samples every invoker's alternating crash/recovery schedule up to
// horizon. Invoker i's schedule comes from an independent child stream
// seeded by (crash stream seed, i), so it is a pure function of the run
// seed and the invoker ID.
func (in *Injector) Outages(nodes int, horizon time.Duration) []Outage {
	if in.spec.MTBF <= 0 || horizon <= 0 {
		return nil
	}
	base := in.crash.Uint64()
	var out []Outage
	for i := 0; i < nodes; i++ {
		src := rng.New(base + 0x9E3779B97F4A7C15*uint64(i+1))
		t := src.ExpDuration(in.spec.MTBF)
		for t < horizon {
			up := addSat(t, src.ExpDuration(in.spec.MTTR))
			out = append(out, Outage{Invoker: i, Down: t, Up: up})
			t = addSat(up, src.ExpDuration(in.spec.MTBF))
		}
	}
	return out
}

// addSat adds two non-negative durations, saturating at the largest
// time.Duration instead of wrapping negative.
func addSat(a, b time.Duration) time.Duration {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

// DrawTask draws one task's fault decision at dispatch time. The draw
// sequence is fixed (cold-fail, task-fail, straggler) regardless of which
// rates are zero, so adding one fault class never perturbs the draws of
// another; zero-rate classes consume no randomness at all.
func (in *Injector) DrawTask(cold bool) TaskFault {
	var f TaskFault
	if cold && in.spec.ColdFailRate > 0 && in.task.Float64() < in.spec.ColdFailRate {
		f.ColdFail = true
		return f // the container never starts; nothing else can happen
	}
	if in.spec.TaskFailRate > 0 && in.task.Float64() < in.spec.TaskFailRate {
		f.Fail = true
		f.FailFrac = in.task.Float64()
	}
	if in.spec.StragglerRate > 0 && in.task.Float64() < in.spec.StragglerRate {
		f.Straggle = true
	}
	return f
}

// JitterFactor draws a deterministic backoff jitter in [0.5, 1).
func (in *Injector) JitterFactor() float64 {
	return 0.5 + 0.5*in.retry.Float64()
}

// Note appends one event to the fault trace.
func (in *Injector) Note(e Event) { in.trace = append(in.trace, e) }

// Trace returns the recorded fault events in occurrence order.
func (in *Injector) Trace() []Event { return in.trace }

// FormatTrace renders the fault trace one event per line — the artifact the
// fault-schedule determinism golden compares byte-for-byte.
func (in *Injector) FormatTrace() string {
	var sb strings.Builder
	for _, e := range in.trace {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
