package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Errorf("zero spec reports enabled")
	}
	for _, s := range []Spec{
		{MTBF: time.Second},
		{TaskFailRate: 0.1},
		{ColdFailRate: 0.1},
		{StragglerRate: 0.1},
	} {
		if !s.Enabled() {
			t.Errorf("spec %+v reports disabled", s)
		}
	}
	// A bare factor (or MTTR) without its gating rate injects nothing.
	if (Spec{StragglerFactor: 8}).Enabled() {
		t.Errorf("straggler factor alone reports enabled")
	}
}

func TestSpecDefaulted(t *testing.T) {
	s := Spec{MTBF: time.Minute, StragglerRate: 0.1}.Defaulted()
	if s.MTTR != 10*time.Second {
		t.Errorf("MTTR defaulted to %v, want 10s", s.MTTR)
	}
	if s.StragglerFactor != 8 {
		t.Errorf("straggler factor defaulted to %g, want 8", s.StragglerFactor)
	}
	// Explicit values survive defaulting; absent classes stay absent.
	s = Spec{MTBF: time.Minute, MTTR: time.Second, StragglerRate: 0.1, StragglerFactor: 3}.Defaulted()
	if s.MTTR != time.Second || s.StragglerFactor != 3 {
		t.Errorf("defaulting clobbered explicit values: %+v", s)
	}
	if d := (Spec{}).Defaulted(); d != (Spec{}) {
		t.Errorf("zero spec gained defaults: %+v", d)
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{MTBF: time.Second, MTTR: time.Millisecond},
		{TaskFailRate: 1, ColdFailRate: 0.5, StragglerRate: 0.1, StragglerFactor: 2},
		{StragglerRate: 0.1}, // factor 0 selects the default
		{StragglerRate: 0.1, StragglerFactor: maxStragglerFactor},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", s, err)
		}
	}
	bad := []Spec{
		{MTBF: -time.Second},
		{MTBF: time.Second, MTTR: -time.Second},
		{MTTR: time.Second}, // repair time without a failure rate
		{TaskFailRate: -0.1},
		{TaskFailRate: 1.1},
		{ColdFailRate: 2},
		{StragglerRate: -1},
		{StragglerRate: 0.1, StragglerFactor: 0.5},  // a speed-up, not a slowdown
		{StragglerRate: 0.1, StragglerFactor: 1e12}, // slowed executions overflow the clock
		{StragglerRate: 0.1, StragglerFactor: math.NaN()},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", s)
		}
	}
}

func TestOutagesDeterministic(t *testing.T) {
	spec := Spec{MTBF: 500 * time.Millisecond, MTTR: 100 * time.Millisecond}
	a := New(spec, 42).Outages(8, 10*time.Second)
	b := New(spec, 42).Outages(8, 10*time.Second)
	if len(a) == 0 {
		t.Fatalf("no outages over 20 expected failures per invoker")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different outage schedules")
	}
	c := New(spec, 43).Outages(8, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds drew identical outage schedules")
	}
	for _, o := range a {
		if o.Down < 0 || o.Up <= o.Down || o.Down >= 10*time.Second {
			t.Fatalf("malformed outage %+v", o)
		}
	}
}

// TestOutagesPerInvokerIndependence pins the (seed, invoker ID) derivation:
// a fleet prefix draws the same schedules regardless of fleet size, so
// growing the cluster never reshuffles existing invokers' outages.
func TestOutagesPerInvokerIndependence(t *testing.T) {
	spec := Spec{MTBF: 500 * time.Millisecond, MTTR: 100 * time.Millisecond}
	small := New(spec, 7).Outages(4, 5*time.Second)
	large := New(spec, 7).Outages(16, 5*time.Second)
	byInv := func(out []Outage, n int) [][]Outage {
		per := make([][]Outage, n)
		for _, o := range out {
			if o.Invoker < n {
				per[o.Invoker] = append(per[o.Invoker], o)
			}
		}
		return per
	}
	if !reflect.DeepEqual(byInv(small, 4), byInv(large, 4)) {
		t.Fatalf("fleet size changed the schedules of invokers 0..3")
	}
}

// TestOutagesMonotoneInMTBF pins the saturating schedule arithmetic: a
// longer MTBF never yields more outages, up to the largest time.Duration,
// where an exponential draw times the mean exceeds int64 nanoseconds and
// used to wrap into a crash 1 ns later.
func TestOutagesMonotoneInMTBF(t *testing.T) {
	const horizon = 10 * time.Minute
	prev := -1
	for _, mtbf := range []time.Duration{
		time.Second, time.Minute, time.Hour, 1e4 * time.Hour, 1e6 * time.Hour, math.MaxInt64,
	} {
		out := New(Spec{MTBF: mtbf, MTTR: time.Second}, 42).Outages(256, horizon)
		if prev >= 0 && len(out) > prev {
			t.Errorf("MTBF %v: %d outages, more than the %d of a shorter MTBF", mtbf, len(out), prev)
		}
		prev = len(out)
		for _, o := range out {
			if o.Down <= 0 || o.Up <= o.Down {
				t.Fatalf("MTBF %v: malformed outage %+v", mtbf, o)
			}
		}
	}
}

func TestOutagesDisabled(t *testing.T) {
	if out := New(Spec{TaskFailRate: 0.5}, 1).Outages(8, time.Minute); out != nil {
		t.Errorf("outages without an MTBF: %v", out)
	}
	if out := New(Spec{MTBF: time.Second}, 1).Outages(8, 0); out != nil {
		t.Errorf("outages over a zero horizon: %v", out)
	}
}

func TestDrawTaskDeterministic(t *testing.T) {
	spec := Spec{TaskFailRate: 0.3, ColdFailRate: 0.2, StragglerRate: 0.1}
	a, b := New(spec, 9), New(spec, 9)
	for i := 0; i < 2000; i++ {
		cold := i%3 == 0
		if fa, fb := a.DrawTask(cold), b.DrawTask(cold); fa != fb {
			t.Fatalf("draw %d diverged at the same seed: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestDrawTaskClasses(t *testing.T) {
	in := New(Spec{TaskFailRate: 0.3, ColdFailRate: 0.3, StragglerRate: 0.3}, 5)
	var coldFails, fails, straggles int
	for i := 0; i < 4000; i++ {
		f := in.DrawTask(i%2 == 0)
		if f.ColdFail {
			coldFails++
			if f.Fail || f.Straggle {
				t.Fatalf("cold-fail combined with a later class: %+v", f)
			}
		}
		if f.Fail {
			fails++
			if f.FailFrac < 0 || f.FailFrac >= 1 {
				t.Fatalf("fail fraction %g outside [0,1)", f.FailFrac)
			}
		}
		if f.Straggle {
			straggles++
		}
	}
	if coldFails == 0 || fails == 0 || straggles == 0 {
		t.Fatalf("classes never drawn: cold=%d fail=%d straggle=%d", coldFails, fails, straggles)
	}
	// Warm dispatches never cold-fail.
	warm := New(Spec{ColdFailRate: 1}, 5)
	if f := warm.DrawTask(false); f.ColdFail {
		t.Errorf("warm dispatch drew a cold-start failure")
	}
}

// TestZeroRateClassesConsumeNothing pins the stream-stability contract: a
// disabled fault class consumes no randomness, so enabling one class never
// perturbs another's draw sequence.
func TestZeroRateClassesConsumeNothing(t *testing.T) {
	only := New(Spec{TaskFailRate: 0.3}, 11)
	all := New(Spec{TaskFailRate: 0.3, ColdFailRate: 0, StragglerRate: 0}, 11)
	for i := 0; i < 1000; i++ {
		fa, fb := only.DrawTask(true), all.DrawTask(true)
		if fa != fb {
			t.Fatalf("zero-rate classes perturbed draw %d: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestJitterFactorRange(t *testing.T) {
	a, b := New(Spec{TaskFailRate: 1}, 3), New(Spec{TaskFailRate: 1}, 3)
	for i := 0; i < 1000; i++ {
		ja, jb := a.JitterFactor(), b.JitterFactor()
		if ja != jb {
			t.Fatalf("jitter draw %d diverged at the same seed", i)
		}
		if ja < 0.5 || ja >= 1 {
			t.Fatalf("jitter %g outside [0.5, 1)", ja)
		}
	}
}

func TestFormatTrace(t *testing.T) {
	in := New(Spec{MTBF: time.Second}, 1)
	if in.FormatTrace() != "" {
		t.Fatalf("fresh injector has a non-empty trace")
	}
	in.Note(Event{At: 250 * time.Millisecond, Kind: Crash, Invoker: 3, Detail: 2})
	in.Note(Event{At: 300 * time.Millisecond, Kind: Retry, Invoker: -1, Detail: 1})
	got := in.FormatTrace()
	want := "250ms crash inv=3 detail=2\n300ms retry inv=-1 detail=1\n"
	if got != want {
		t.Fatalf("trace rendered as %q, want %q", got, want)
	}
	if len(in.Trace()) != 2 {
		t.Fatalf("trace holds %d events, want 2", len(in.Trace()))
	}
	// Every kind renders a distinct name.
	seen := map[string]bool{}
	for k := Crash; k <= Drop; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d renders %q (duplicate or empty)", k, name)
		}
		seen[name] = true
	}
	if strings.Count(in.FormatTrace(), "\n") != 2 {
		t.Fatalf("trace lines mismatch")
	}
}
