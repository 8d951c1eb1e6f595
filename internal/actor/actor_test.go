package actor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMessagesProcessedInOrder(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	const n = 10000
	var got []int
	done := make(chan struct{})
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if v, ok := c.Message().(int); ok {
			got = append(got, v)
			if v == n-1 {
				close(done)
			}
		}
	}))
	for i := 0; i < n; i++ {
		sys.Send(pid, i)
	}
	select {
	case <-done:
	case <-time.After(waitTimeout):
		t.Fatal("timed out")
	}
	if len(got) != n {
		t.Fatalf("processed %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestSingleSenderOrderingManyActors(t *testing.T) {
	// Messages from one producer to each of many actors keep per-actor
	// FIFO order even under concurrent cross-traffic.
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	const actors = 50
	const msgs = 500
	var wg sync.WaitGroup
	wg.Add(actors)
	pids := make([]*PID, actors)
	errs := make(chan error, actors)
	for a := 0; a < actors; a++ {
		next := 0
		pids[a] = sys.Spawn(PropsOf(func(c *Context) {
			if v, ok := c.Message().(int); ok {
				if v != next {
					errs <- fmt.Errorf("got %d want %d", v, next)
				}
				next++
				if next == msgs {
					wg.Done()
				}
			}
		}))
	}
	var sendWG sync.WaitGroup
	for a := 0; a < actors; a++ {
		sendWG.Add(1)
		go func(pid *PID) {
			defer sendWG.Done()
			for i := 0; i < msgs; i++ {
				sys.Send(pid, i)
			}
		}(pids[a])
	}
	sendWG.Wait()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(waitTimeout):
		t.Fatal("timed out")
	}
}

func TestNoConcurrentReceive(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	var inFlight, maxSeen int32
	done := make(chan struct{})
	const n = 2000
	var count int32
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); !ok {
			return
		}
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			m := atomic.LoadInt32(&maxSeen)
			if cur <= m || atomic.CompareAndSwapInt32(&maxSeen, m, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
		if atomic.AddInt32(&count, 1) == n {
			close(done)
		}
	}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				sys.Send(pid, i)
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(waitTimeout):
		t.Fatal("timed out")
	}
	if atomic.LoadInt32(&maxSeen) != 1 {
		t.Fatalf("Receive ran concurrently: max in-flight %d", maxSeen)
	}
}

func TestLifecycleSequence(t *testing.T) {
	sys := NewSystem("t")
	var mu sync.Mutex
	var events []string
	record := func(s string) {
		mu.Lock()
		events = append(events, s)
		mu.Unlock()
	}
	pid := sys.Spawn(PropsOf(func(c *Context) {
		switch c.Message().(type) {
		case Started:
			record("started")
		case Stopping:
			record("stopping")
		case Stopped:
			record("stopped")
		case string:
			record("msg")
		}
	}))
	sys.Send(pid, "x")
	poisonWait(t, sys, pid)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"started", "msg", "stopping", "stopped"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestStopOvertakesQueuedMessages(t *testing.T) {
	// Stop travels the system lane: messages still queued behind it are
	// dead-lettered, unlike Poison which drains them first.
	sys := NewSystem("t")
	var processed, poisonProcessed int32
	block := make(chan struct{})
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if c.Message() == "work" {
			<-block
			atomic.AddInt32(&processed, 1)
		}
	}))
	// First message parks the actor; the rest queue up.
	sys.Send(pid, "work")
	for i := 0; i < 100; i++ {
		sys.Send(pid, "work")
	}
	sys.Stop(pid)
	close(block)
	deadline := time.Now().Add(waitTimeout)
	for pid.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("never stopped")
		}
		time.Sleep(time.Millisecond)
	}
	if n := atomic.LoadInt32(&processed); n > 5 {
		t.Fatalf("immediate stop processed %d queued messages", n)
	}

	// Poison drains everything first.
	pid2 := sys.Spawn(PropsOf(func(c *Context) {
		if c.Message() == "work" {
			atomic.AddInt32(&poisonProcessed, 1)
		}
	}))
	for i := 0; i < 100; i++ {
		sys.Send(pid2, "work")
	}
	poisonWait(t, sys, pid2)
	if n := atomic.LoadInt32(&poisonProcessed); n != 100 {
		t.Fatalf("poison processed %d/100 queued messages", n)
	}
}

func TestSendToStoppedGoesToDeadLetters(t *testing.T) {
	sys := NewSystem("t")
	pid := sys.Spawn(echoProps())
	stopWait(t, sys, pid)
	if pid.Alive() {
		t.Fatal("pid must report not alive after stop")
	}
	before := sys.StatsSnapshot().DeadLetters
	sys.Send(pid, "ghost")
	if got := sys.StatsSnapshot().DeadLetters - before; got != 1 {
		t.Fatalf("dead letters = %d, want 1", got)
	}
}

func TestRestartOnPanic(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	var instances int32
	props := PropsFromProducer(func(Key) Actor {
		atomic.AddInt32(&instances, 1)
		count := 0
		return ReceiveFunc(func(c *Context) {
			switch m := c.Message().(type) {
			case string:
				count++
				panic("kaboom")
			case request:
				count++
				m.reply <- count
			}
		})
	})
	pid := sys.Spawn(props)
	if r := call(t, sys, pid, "a"); r != 1 {
		t.Fatalf("r=%v", r)
	}
	sys.Send(pid, "boom")
	// After the restart, state is reset: the counter starts over.
	if r := call(t, sys, pid, "b"); r != 1 {
		t.Fatalf("state not reset after restart: count=%v", r)
	}
	if atomic.LoadInt32(&instances) != 2 {
		t.Fatalf("expected 2 instances, got %d", instances)
	}
}

// TestRestartBudgetStopsActor: an actor that keeps panicking is
// restarted maxRestarts times within restartWindow, then stopped.
func TestRestartBudgetStopsActor(t *testing.T) {
	sys := NewSystem("t")
	props := PropsOf(func(c *Context) {
		if c.Message() == "boom" {
			panic("kaboom")
		}
	})
	pid := sys.Spawn(props)
	for i := 0; i < 2*maxRestarts; i++ {
		sys.Send(pid, "boom")
	}
	deadline := time.Now().Add(waitTimeout)
	for pid.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("actor not stopped after exceeding restart budget")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sys.StatsSnapshot().Restarts; got != maxRestarts {
		t.Fatalf("restarted %d times, budget was %d", got, maxRestarts)
	}
	if got := sys.StatsSnapshot().Failures; got != maxRestarts+1 {
		t.Fatalf("failures = %d, want %d", got, maxRestarts+1)
	}
}

// TestNamedSpawnAndLookup: an actor is addressed by its entity key.
// The same ID under another Kind is another entity, and a warm
// GetOrSpawn returns the registered PID without spawning.
func TestNamedSpawnAndLookup(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	key := Key{Kind: 1, ID: 239000123}
	pid, spawned := sys.GetOrSpawn(key, echoProps())
	if !spawned {
		t.Fatal("first GetOrSpawn must spawn")
	}
	if got := lookup(sys, key); got != pid {
		t.Fatalf("lookup = %v want %v", got, pid)
	}
	if again, spawned := sys.GetOrSpawn(key, echoProps()); spawned || again != pid {
		t.Fatalf("warm GetOrSpawn = %v (spawned %v), want %v", again, spawned, pid)
	}
	other, spawned := sys.GetOrSpawn(Key{Kind: 2, ID: key.ID}, echoProps())
	if !spawned || other == pid {
		t.Fatal("same ID under another kind must be another actor")
	}
	if lookup(sys, Key{Kind: 1, ID: 7}) != nil {
		t.Fatal("unknown lookup must be nil")
	}
	if n := registrySize(sys); n != 2 {
		t.Fatalf("registry holds %d entries, want 2", n)
	}
}

func TestLookupAfterStopIsNil(t *testing.T) {
	sys := NewSystem("t")
	key := Key{Kind: 0, ID: 42}
	pid, _ := sys.GetOrSpawn(key, echoProps())
	stopWait(t, sys, pid)
	if lookup(sys, key) != nil {
		t.Fatal("stopped actor must be unregistered")
	}
	if n := registrySize(sys); n != 0 {
		t.Fatalf("registry holds %d entries after stop", n)
	}
	// The key is reusable after stop.
	if _, spawned := sys.GetOrSpawn(key, echoProps()); !spawned {
		t.Fatal("key not reusable after stop")
	}
}

// TestRespawnSurvivesLateUnregister: GetOrSpawn replaces an entry whose
// actor died before unregistering, and that actor's unregister, when it
// comes, leaves the successor registered.
func TestRespawnSurvivesLateUnregister(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	key := Key{Kind: 3, ID: 5}
	old, _ := sys.GetOrSpawn(key, echoProps())
	stopWait(t, sys, old)
	// Put the corpse back, as if its unregister had not run yet.
	sh := sys.shardOf(key)
	sh.mu.Lock()
	sh.m[key.ID] = old
	sh.mu.Unlock()

	fresh, spawned := sys.GetOrSpawn(key, echoProps())
	if !spawned || fresh == old {
		t.Fatal("a dead entry must be replaced by a fresh spawn")
	}
	sys.unregister(old)
	if got := lookup(sys, key); got != fresh {
		t.Fatalf("late unregister of %v removed its successor: lookup = %v", old, got)
	}
	if r := call(t, sys, fresh, "alive?"); r != "alive?" {
		t.Fatalf("respawned actor replied %v", r)
	}
}

func TestGetOrSpawnConcurrent(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	var spawned int32
	props := PropsFromProducer(func(k Key) Actor {
		atomic.AddInt32(&spawned, 1)
		return echoProps().producer(k)
	})
	const goroutines = 32
	pids := make([]*PID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pid, _ := sys.GetOrSpawn(Key{Kind: 1, ID: 42}, props)
			pids[i] = pid
		}(g)
	}
	wg.Wait()
	if n := atomic.LoadInt32(&spawned); n != 1 {
		t.Fatalf("spawned %d instances, want 1", n)
	}
	for _, pid := range pids {
		if pid != pids[0] {
			t.Fatal("GetOrSpawn returned different PIDs")
		}
	}
}

func TestKeyKindOutOfRangePanics(t *testing.T) {
	sys := NewSystem("t")
	defer func() {
		if recover() == nil {
			t.Fatal("GetOrSpawn with Kind >= Kinds must panic")
		}
	}()
	sys.GetOrSpawn(Key{Kind: Kinds, ID: 1}, echoProps())
}

func TestSendAfter(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	got := make(chan any, 1)
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if s, ok := c.Message().(string); ok {
			got <- s
		}
	}))
	start := time.Now()
	sys.SendAfter(50*time.Millisecond, pid, "tick")
	select {
	case <-got:
		if d := time.Since(start); d < 40*time.Millisecond {
			t.Fatalf("delivered too early: %v", d)
		}
	case <-time.After(waitTimeout):
		t.Fatal("timer message never arrived")
	}
}

func TestSendAfterCancel(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	got := make(chan any, 1)
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if _, ok := c.Message().(string); ok {
			got <- c.Message()
		}
	}))
	timer := sys.SendAfter(50*time.Millisecond, pid, "tick")
	timer.Stop()
	select {
	case <-got:
		t.Fatal("cancelled timer still delivered")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestStatsCounters(t *testing.T) {
	sys := NewSystem("t")
	pid := sys.Spawn(echoProps())
	call(t, sys, pid, "x")
	stopWait(t, sys, pid)
	s := sys.StatsSnapshot()
	if s.ActorsSpawned != 1 {
		t.Fatalf("spawned = %d", s.ActorsSpawned)
	}
	if s.MessagesProcessed == 0 {
		t.Fatal("no messages counted")
	}
	if s.ActorsStopped == 0 {
		t.Fatal("no stops counted")
	}
}

func TestLiveActorsTracksSpawnStop(t *testing.T) {
	sys := NewSystem("t")
	base := sys.LiveActors()
	pids := make([]*PID, 10)
	for i := range pids {
		pids[i] = sys.Spawn(echoProps())
	}
	if got := sys.LiveActors(); got != base+10 {
		t.Fatalf("live = %d want %d", got, base+10)
	}
	for _, pid := range pids {
		stopWait(t, sys, pid)
	}
	if got := sys.LiveActors(); got != base {
		t.Fatalf("live = %d want %d", got, base)
	}
}

func TestManyActorsThroughput(t *testing.T) {
	// Smoke-scale version of the paper's scalability claim: tens of
	// thousands of actors all receiving traffic without deadlock.
	if testing.Short() {
		t.Skip("short mode")
	}
	sys := NewSystem("t")
	defer sys.Shutdown(2 * time.Second)
	const actors = 20000
	const msgsPer = 5
	var processed int64
	done := make(chan struct{})
	props := PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			if atomic.AddInt64(&processed, 1) == actors*msgsPer {
				close(done)
			}
		}
	})
	pids := make([]*PID, actors)
	for i := range pids {
		pids[i] = sys.Spawn(props)
	}
	for m := 0; m < msgsPer; m++ {
		for _, pid := range pids {
			sys.Send(pid, m)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("processed only %d/%d", atomic.LoadInt64(&processed), actors*msgsPer)
	}
}

func TestMailboxLenBackpressureSignal(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	release := make(chan struct{})
	lens := make(chan int64, 1)
	pid := sys.Spawn(PropsOf(func(c *Context) {
		switch c.Message() {
		case "block":
			<-release
		case "measure":
			select {
			case lens <- c.Self().process.mb.Len():
			default:
			}
		}
	}))
	sys.Send(pid, "block")
	for i := 0; i < 10; i++ {
		sys.Send(pid, "measure")
	}
	close(release)
	select {
	case l := <-lens:
		if l < 0 {
			t.Fatalf("mailbox len = %d", l)
		}
	case <-time.After(waitTimeout):
		t.Fatal("no measurement")
	}
}

func TestPIDString(t *testing.T) {
	var nilPID *PID
	if nilPID.String() != "pid://<nil>" {
		t.Fatalf("nil pid string = %q", nilPID.String())
	}
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	keyed, _ := sys.GetOrSpawn(Key{Kind: 2, ID: 239000001}, echoProps())
	if got := keyed.String(); got != "pid://2/239000001" {
		t.Fatalf("keyed pid string = %q", got)
	}
	if got := sys.Spawn(echoProps()).String(); got != "pid://$1" {
		t.Fatalf("anonymous pid string = %q", got)
	}
}

func BenchmarkSendReceive(b *testing.B) {
	sys := NewSystem("b")
	defer sys.Shutdown(time.Second)
	var count int64
	done := make(chan struct{})
	target := int64(b.N)
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			if atomic.AddInt64(&count, 1) == target {
				close(done)
			}
		}
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Send(pid, i)
	}
	<-done
}

func BenchmarkSpawn(b *testing.B) {
	sys := NewSystem("b")
	props := echoProps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Spawn(props)
	}
}

func BenchmarkFanOut(b *testing.B) {
	// One producer feeding 1000 actors round-robin, the ingestion shape
	// of the pipeline.
	sys := NewSystem("b")
	defer sys.Shutdown(time.Second)
	const actors = 1000
	var count int64
	done := make(chan struct{})
	target := int64(b.N)
	props := PropsOf(func(c *Context) {
		if _, ok := c.Message().(int); ok {
			if atomic.AddInt64(&count, 1) == target {
				close(done)
			}
		}
	})
	pids := make([]*PID, actors)
	for i := range pids {
		pids[i] = sys.Spawn(props)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Send(pids[i%actors], i)
	}
	<-done
}
