package actor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetOrSpawnConcurrentSpawnPassivate hammers GetOrSpawn from 32
// goroutines over a small key pool while actors are concurrently
// stopped (the cell-passivation pattern), asserting exactly-one-spawn
// semantics — at no point do two live actors share a key — and that
// no message is lost: everything sent is either processed or
// dead-lettered, never dropped silently. Run it under -race.
func TestGetOrSpawnConcurrentSpawnPassivate(t *testing.T) {
	sys := NewSystem("race")
	defer sys.Shutdown(2 * time.Second)

	const (
		workers = 32
		keys    = 64
		iters   = 300
	)
	var (
		sent     atomic.Int64
		received atomic.Int64
		live     [keys]atomic.Int32
	)
	propsFor := func(idx int) *Props {
		return PropsOf(func(c *Context) {
			switch c.Message().(type) {
			case Started:
				// Stopped(old) happens-before Started(new) for a reused
				// key, so a gauge above 1 means two live actors shared it.
				if g := live[idx].Add(1); g > 1 {
					t.Errorf("key %d: %d concurrent live actors", idx, g)
				}
			case Stopped:
				live[idx].Add(-1)
			case int:
				received.Add(1)
			}
		})
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(keys)
				pid, _ := sys.GetOrSpawn(Key{Kind: 1, ID: uint64(idx)}, propsFor(idx))
				sent.Add(1)
				sys.Send(pid, i)
				if rng.Intn(8) == 0 {
					sys.Stop(pid) // concurrent passivation
				}
			}
		}(w)
	}
	wg.Wait()

	// Every sent message must be accounted for: processed by a live
	// actor or dead-lettered during a stop — never lost.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := received.Load() + int64(sys.StatsSnapshot().DeadLetters)
		if got == sent.Load() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := received.Load() + int64(sys.StatsSnapshot().DeadLetters); got != sent.Load() {
		t.Fatalf("messages lost: sent %d, accounted %d", sent.Load(), got)
	}

	// Registry bookkeeping stays exact through the churn: once the last
	// stops have completed, the registry holds exactly the live actors.
	var size, liveKeys int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		liveKeys = 0
		for i := 0; i < keys; i++ {
			if lookup(sys, Key{Kind: 1, ID: uint64(i)}) != nil {
				liveKeys++
			}
		}
		size = registrySize(sys)
		if (size == liveKeys && sys.LiveActors() == int64(liveKeys)) || time.Now().After(deadline) {
			break
		}
	}
	if size != liveKeys || sys.LiveActors() != int64(liveKeys) {
		t.Fatalf("registry holds %d entries, live keys = %d, live actors = %d", size, liveKeys, sys.LiveActors())
	}
}

// TestSendBatchDuringStopLosesNothing floods one actor from several
// producers while it is being stopped: every message is processed or
// dead-lettered, including those whose sender passed the dead check just
// before the stop flushed the mailbox. Run it under -race.
func TestSendBatchDuringStopLosesNothing(t *testing.T) {
	sys := NewSystem("stopflood")
	defer sys.Shutdown(2 * time.Second)

	const rounds, producers, batches, batchLen = 50, 4, 50, 8
	var processed atomic.Int64
	props := PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			processed.Add(1)
		}
	})
	msgs := make([]any, batchLen)
	for i := range msgs {
		msgs[i] = i
	}
	var sent int64
	for r := 0; r < rounds; r++ {
		pid := sys.Spawn(props)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for b := 0; b < batches; b++ {
					sys.SendBatch(pid, msgs)
				}
			}()
		}
		close(start)
		sys.Stop(pid)
		wg.Wait()
		sent += producers * batches * batchLen
	}

	accounted := func() int64 { return processed.Load() + int64(sys.StatsSnapshot().DeadLetters) }
	for deadline := time.Now().Add(5 * time.Second); accounted() != sent && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := accounted(); got != sent {
		t.Fatalf("messages lost: sent %d, processed %d + dead-lettered %d = %d",
			sent, processed.Load(), sys.StatsSnapshot().DeadLetters, got)
	}
}

// TestQueuedMessagesCountsBacklog verifies System.QueuedMessages sees a
// backlog held in a slow actor's mailbox — the signal Pipeline.Drain
// uses to not declare quiescence early.
func TestQueuedMessagesCountsBacklog(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	release := make(chan struct{})
	pid, _ := sys.GetOrSpawn(Key{Kind: 0, ID: 1}, PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			<-release
		}
	}))
	for i := 0; i < 10; i++ {
		sys.Send(pid, i)
	}
	// The first message blocks inside Receive; at least the other nine
	// must be visible as queued backlog.
	deadline := time.Now().Add(2 * time.Second)
	for sys.QueuedMessages() < 9 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := sys.QueuedMessages(); q < 9 {
		t.Fatalf("QueuedMessages = %d, want >= 9", q)
	}
	// Samplers read it every few milliseconds: it must not allocate.
	if avg := testing.AllocsPerRun(100, func() { sys.QueuedMessages() }); avg != 0 {
		t.Fatalf("QueuedMessages allocates %.2f/call, want 0", avg)
	}
	close(release)
	deadline = time.Now().Add(2 * time.Second)
	for sys.QueuedMessages() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := sys.QueuedMessages(); q != 0 {
		t.Fatalf("QueuedMessages = %d after drain, want 0", q)
	}
}
