package actor

import (
	"sync"
	"testing"
	"time"
)

// TestSendBatchDeliversInOrder checks that a batch arrives complete and
// in order, interleaved safely with concurrent single sends.
func TestSendBatchDeliversInOrder(t *testing.T) {
	sys := NewSystem("test")
	defer sys.Shutdown(time.Second)

	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	const n = 500
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if v, ok := c.Message().(int); ok {
			mu.Lock()
			got = append(got, v)
			if len(got) == n {
				close(done)
			}
			mu.Unlock()
		}
	}))

	msgs := make([]any, n)
	for i := range msgs {
		msgs[i] = i
	}
	sys.SendBatch(pid, msgs)

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("batch not fully delivered: got %d/%d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, v)
		}
	}
}

// TestSendBatchDeadTarget checks that a batch to a stopped actor routes
// every message to dead letters instead of vanishing.
func TestSendBatchDeadTarget(t *testing.T) {
	sys := NewSystem("test")
	defer sys.Shutdown(time.Second)

	pid := sys.Spawn(PropsOf(func(c *Context) {}))
	stopWait(t, sys, pid)
	before := sys.StatsSnapshot().DeadLetters
	sys.SendBatch(pid, []any{1, 2, 3})
	if got := sys.StatsSnapshot().DeadLetters - before; got != 3 {
		t.Fatalf("dead letters = %d, want 3", got)
	}
}

// TestMailboxShrinkAfterBurst asserts the satellite fix: after a burst
// grows the mailbox buffers, a return to trickle traffic releases the
// retained capacity instead of pinning the burst's high-water mark
// forever on every one of ~170K vessel actors.
func TestMailboxShrinkAfterBurst(t *testing.T) {
	m := newMailbox()
	const burst = 1 << 14

	// Burst fill and drain: both buffers end up with burst-sized capacity.
	for i := 0; i < burst; i++ {
		m.pushUser(i)
	}
	for {
		if _, ok := m.popUser(); !ok {
			break
		}
	}
	if cap(m.userR) < burst && cap(m.userW) < burst {
		t.Fatalf("test setup: burst did not grow buffers (caps %d/%d)", cap(m.userR), cap(m.userW))
	}

	// Trickle traffic: small batches, fully drained each time. The
	// decaying peak should trigger release of the oversized buffers.
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			m.pushUser(i)
		}
		n := 0
		for {
			msg, ok := m.popUser()
			if !ok {
				break
			}
			if msg == nil {
				t.Fatal("lost message payload")
			}
			n++
		}
		if n != 4 {
			t.Fatalf("round %d: drained %d messages, want 4", round, n)
		}
	}

	if cap(m.userR) > shrinkMinCap || cap(m.userW) > shrinkMinCap {
		t.Fatalf("burst capacity retained after trickle: caps userR=%d userW=%d, want <= %d",
			cap(m.userR), cap(m.userW), shrinkMinCap)
	}
	if m.Len() != 0 {
		t.Fatalf("length accounting drifted: %d", m.Len())
	}
}

// TestMailboxShrinkKeepsSteadyBurst checks the other side: an actor
// that keeps receiving large batches must NOT thrash between release
// and regrow.
func TestMailboxShrinkKeepsSteadyBurst(t *testing.T) {
	m := newMailbox()
	const batch = 4096
	for round := 0; round < 10; round++ {
		for i := 0; i < batch; i++ {
			m.pushUser(i)
		}
		for {
			if _, ok := m.popUser(); !ok {
				break
			}
		}
	}
	// After repeated same-sized bursts the buffers should retain about a
	// burst of capacity (swap reuses them), not have been released.
	if cap(m.userR) < batch && cap(m.userW) < batch {
		t.Fatalf("steady burst buffers were released: caps userR=%d userW=%d", cap(m.userR), cap(m.userW))
	}
}
