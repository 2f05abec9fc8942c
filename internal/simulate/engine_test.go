package simulate

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: position %d holds %d", i, v)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var events []time.Duration
	e.After(10*time.Millisecond, func() {
		events = append(events, e.Now())
		e.After(5*time.Millisecond, func() {
			events = append(events, e.Now())
		})
	})
	e.Run()
	if len(events) != 2 || events[0] != 10*time.Millisecond || events[1] != 15*time.Millisecond {
		t.Errorf("events = %v", events)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	e := New()
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() {
			if e.Now() != 10*time.Millisecond {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run()
}

func TestNegativeAfterClamps(t *testing.T) {
	e := New()
	ran := false
	e.After(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Errorf("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved backwards: %v", e.Now())
	}
}

func TestStepAndProcessed(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	if !e.Step() {
		t.Errorf("Step returned false with queued event")
	}
	if e.Step() {
		t.Errorf("Step returned true on empty queue")
	}
	if e.Processed != 1 {
		t.Errorf("processed = %d", e.Processed)
	}
}
