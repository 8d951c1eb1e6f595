package actor

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetOrSpawnConcurrentSpawnPassivate hammers GetOrSpawn from 32
// goroutines over a small name pool while actors are concurrently
// stopped (the cell-passivation pattern), asserting exactly-one-spawn
// semantics — at no point do two live actors share a name — and that
// no message is lost: everything sent is either processed or
// dead-lettered, never dropped silently. Run it under -race.
func TestGetOrSpawnConcurrentSpawnPassivate(t *testing.T) {
	sys := NewSystem("race")
	defer sys.Shutdown(2 * time.Second)

	const (
		workers = 32
		names   = 64
		iters   = 300
	)
	var (
		sent     atomic.Int64
		received atomic.Int64
		live     [names]atomic.Int32
	)
	propsFor := func(idx int) *Props {
		return PropsOf(func(c *Context) {
			switch c.Message().(type) {
			case Started:
				// Stopped(old) happens-before Started(new) for a reused
				// name, so a gauge above 1 means two live actors shared it.
				if g := live[idx].Add(1); g > 1 {
					t.Errorf("name %d: %d concurrent live actors", idx, g)
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
				idx := rng.Intn(names)
				pid, _ := sys.GetOrSpawn("cell-"+strconv.Itoa(idx), propsFor(idx))
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

	// Registry bookkeeping stays exact through the churn.
	liveNames := 0
	for i := 0; i < names; i++ {
		if lookup(sys, "cell-"+strconv.Itoa(i)) != nil {
			liveNames++
		}
	}
	if size := registrySize(sys); size != liveNames {
		t.Fatalf("registry holds %d entries, live names = %d", size, liveNames)
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

// TestLookupRemovesDeadEntry verifies the stale-registry fix: a
// registry entry whose actor has died is deleted eagerly by the
// registry read instead of lingering until the process unregisters.
func TestLookupRemovesDeadEntry(t *testing.T) {
	sys := NewSystem("t")
	pid, err := sys.SpawnNamed(PropsOf(func(c *Context) {}), "zombie")
	if err != nil {
		t.Fatal(err)
	}
	stopWait(t, sys, pid)
	// Simulate the tombstone window: re-insert the dead pid as a stale
	// entry, as if the unregister had not run yet.
	sh := sys.shardOf("zombie")
	sh.m.Store("zombie", pid)
	if lookup(sys, "zombie") != nil {
		t.Fatal("dead entry returned from lookup")
	}
	if _, ok := sh.m.Load("zombie"); ok {
		t.Fatal("dead entry not eagerly deleted")
	}
	if size := registrySize(sys); size != 0 {
		t.Fatalf("registry holds %d entries after tombstone removal", size)
	}
}

// TestQueuedMessagesCountsBacklog verifies System.QueuedMessages sees a
// backlog held in a slow actor's mailbox — the signal Pipeline.Drain
// uses to not declare quiescence early.
func TestQueuedMessagesCountsBacklog(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	release := make(chan struct{})
	pid, err := sys.SpawnNamed(PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			<-release
		}
	}), "slow")
	if err != nil {
		t.Fatal(err)
	}
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
	close(release)
	deadline = time.Now().Add(2 * time.Second)
	for sys.QueuedMessages() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := sys.QueuedMessages(); q != 0 {
		t.Fatalf("QueuedMessages = %d after drain, want 0", q)
	}
}
