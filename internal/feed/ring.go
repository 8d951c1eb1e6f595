package feed

import "sync"

// Policy selects what a subscriber's ring does when it is full. The
// choice is per-subscription: position tickers want drop-oldest, state
// mirrors want conflate-by-key (only the newest frame per vessel
// matters), and strict consumers that must see every frame want to be
// disconnected rather than silently lose data.
type Policy int

const (
	// PolicyDropOldest evicts the oldest buffered frame to make room.
	PolicyDropOldest Policy = iota
	// PolicyConflate replaces the buffered frame with the same key in
	// place (keyless frames fall back to drop-oldest on overflow).
	PolicyConflate
	// PolicyDisconnect force-closes the subscription on overflow.
	PolicyDisconnect
)

// String returns the wire name of the policy ("drop", "conflate",
// "disconnect").
func (p Policy) String() string {
	switch p {
	case PolicyConflate:
		return "conflate"
	case PolicyDisconnect:
		return "disconnect"
	default:
		return "drop"
	}
}

// ParsePolicy resolves a wire name; unknown names report false.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "", "drop", "drop-oldest":
		return PolicyDropOldest, true
	case "conflate":
		return PolicyConflate, true
	case "disconnect":
		return PolicyDisconnect, true
	default:
		return 0, false
	}
}

// ring is a bounded single-consumer frame queue. push is called by the
// hub's publisher (possibly several goroutines) and is O(1) under the
// ring mutex — it never waits on the consumer, which is the property
// that keeps a slow client out of the hot path. pop blocks the
// consumer until a frame or closure arrives.
type ring struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []frame
	start  int // absolute index of the oldest buffered frame
	count  int
	byKey  map[string]int // conflation key -> absolute index
	policy Policy
	closed bool
	err    error
}

func newRing(capacity int, policy Policy) *ring {
	r := &ring{items: make([]frame, capacity), policy: policy}
	if policy == PolicyConflate {
		r.byKey = make(map[string]int, capacity)
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// push enqueues a frame. It reports whether the frame was accepted,
// whether it conflated an already-buffered frame in place, and whether
// an older frame was evicted to make room. pushed=false means the ring
// overflowed under PolicyDisconnect and the subscriber must be closed.
func (r *ring) push(f frame) (pushed, conflated, droppedOld bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return true, false, false // swallowed; the subscriber is already gone
	}
	if r.policy == PolicyConflate && f.key != "" {
		if idx, ok := r.byKey[f.key]; ok && idx >= r.start {
			r.items[idx%len(r.items)] = f
			return true, true, false
		}
	}
	if r.count == len(r.items) {
		if r.policy == PolicyDisconnect {
			return false, false, false
		}
		old := r.items[r.start%len(r.items)]
		if r.byKey != nil && old.key != "" && r.byKey[old.key] == r.start {
			delete(r.byKey, old.key)
		}
		r.start++
		r.count--
		droppedOld = true
	}
	abs := r.start + r.count
	r.items[abs%len(r.items)] = f
	if r.byKey != nil && f.key != "" {
		r.byKey[f.key] = abs
	}
	r.count++
	r.cond.Signal()
	return true, false, droppedOld
}

// pop dequeues the oldest frame, blocking until one is available. ok is
// false once the ring is closed (closure discards any buffered frames:
// a disconnect, hub shutdown or client Close all stop delivery at once).
func (r *ring) pop() (f frame, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.count == 0 && !r.closed {
		r.cond.Wait()
	}
	if r.count == 0 {
		return frame{}, false
	}
	f = r.items[r.start%len(r.items)]
	r.items[r.start%len(r.items)] = frame{} // release the payload bytes
	if r.byKey != nil && f.key != "" && r.byKey[f.key] == r.start {
		delete(r.byKey, f.key)
	}
	r.start++
	r.count--
	return f, true
}

// closeNow closes the ring and discards buffered frames, waking any
// blocked consumer.
func (r *ring) closeNow(err error) {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.err = err
		r.count = 0
		r.byKey = nil
		for i := range r.items {
			r.items[i] = frame{}
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// closeErr returns the closure reason, nil while open.
func (r *ring) closeErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
