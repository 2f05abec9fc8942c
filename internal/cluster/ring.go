package cluster

import (
	"fmt"
	"time"
)

// expiryRing is the warm-pool expiry engine of one (invoker, function)
// pair: a growable circular FIFO of idle-container keep-alive deadlines.
//
// Two facts make a plain FIFO a complete expiry index: simulated time
// never runs backwards, and every container of an invoker gets the same
// keep-alive, so deadlines are pushed in non-decreasing order (enforced by
// push) and the head is always the earliest expiry. Pruning therefore pops
// expired heads instead of scanning the pool — each container is examined
// exactly once over its lifetime, amortized O(1) per container — and every
// warm-pool query (presence, count, warm-start consumption) reads the head
// or the live count without iterating.
type expiryRing struct {
	buf  []time.Duration // circular storage; len(buf) is a power of two
	head int             // index of the earliest deadline
	n    int             // live entries
}

// front returns the earliest deadline; undefined when empty.
func (r *expiryRing) front() time.Duration { return r.buf[r.head] }

// back returns the latest deadline; undefined when empty.
func (r *expiryRing) back() time.Duration {
	return r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// push appends a keep-alive deadline. Deadlines must be non-decreasing — a
// violation means an event ran at an earlier simulated time than its
// predecessor, the same class of scheduler bug the ledger panics guard
// against, so it panics rather than silently corrupting expiry order.
func (r *expiryRing) push(exp time.Duration) {
	if r.n > 0 && exp < r.back() {
		panic(fmt.Sprintf("cluster: warm-pool time regression (new keep-alive deadline %v before last %v)", exp, r.back()))
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = exp
	r.n++
}

// popFront removes the earliest deadline.
func (r *expiryRing) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// pruneExpired pops every deadline that has passed by now (the boundary
// keeps exp > now, matching the scan it replaced) and returns how many it
// popped, so the caller can reconcile the fleet-wide warm index.
func (r *expiryRing) pruneExpired(now time.Duration) (popped int) {
	for r.n > 0 && r.buf[r.head] <= now {
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
		popped++
	}
	return popped
}

// reset empties the ring, keeping the storage. Unlike pruneExpired this
// drops deadlines still in the future — it is the crash-flush path, where
// every idle container of a down invoker is lost at once.
func (r *expiryRing) reset() {
	r.head = 0
	r.n = 0
}

// grow doubles the storage, re-linearizing the circle.
func (r *expiryRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 4
	}
	buf := make([]time.Duration, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
