package cluster

import (
	"testing"
	"time"
)

func TestExpiryRingFIFOAcrossGrowth(t *testing.T) {
	var r expiryRing
	// Interleave pushes and pops so the head wraps before a growth
	// re-linearizes the circle.
	next := time.Duration(0)
	popped := time.Duration(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			next++
			r.push(next)
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			popped++
			if got := r.front(); got != popped {
				t.Fatalf("front = %v, want %v", got, popped)
			}
			r.popFront()
		}
	}
	push(3) // fills the initial 4-slot buffer partway
	pop(2)  // head advances to index 2
	push(6) // wraps, then grows 4 -> 8 re-linearizing head
	pop(7)
	if r.n != 0 {
		t.Fatalf("ring not drained: %d left", r.n)
	}
	push(20) // grow again from empty-with-offset-head
	pop(20)
}

func TestExpiryRingPruneBoundary(t *testing.T) {
	var r expiryRing
	r.push(10)
	r.push(20)
	if k := r.pruneExpired(9); k != 0 {
		t.Fatalf("prune before any deadline popped %d", k)
	}
	if r.n != 2 {
		t.Fatalf("n = %d after no-op prune", r.n)
	}
	// The boundary keeps exp > now: a deadline exactly at now expires.
	if k := r.pruneExpired(10); k != 1 {
		t.Fatalf("prune at first deadline popped %d, want 1", k)
	}
	if r.n != 1 || r.front() != 20 {
		t.Fatalf("n=%d front=%v after boundary prune, want 1/20", r.n, r.front())
	}
	if k := r.pruneExpired(25); k != 1 || r.n != 0 {
		t.Fatalf("prune past all deadlines popped %d leaving %d, want 1/0", k, r.n)
	}
	if k := r.pruneExpired(30); k != 0 {
		t.Fatalf("prune of an empty ring popped %d", k)
	}
}

func TestExpiryRingRejectsRegression(t *testing.T) {
	var r expiryRing
	r.push(10)
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-order deadline did not panic")
		}
	}()
	r.push(9)
}
