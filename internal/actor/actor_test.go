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
	var dead int32
	unsub := SubscribeType(sys.Events(), func(DeadLetter) { atomic.AddInt32(&dead, 1) })
	defer unsub()
	pid := sys.Spawn(echoProps())
	stopWait(t, sys, pid)
	if pid.Alive() {
		t.Fatal("pid must report not alive after stop")
	}
	sys.Send(pid, "ghost")
	deadline := time.Now().Add(waitTimeout)
	for atomic.LoadInt32(&dead) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead letter never published")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRestartOnPanic(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	var instances int32
	props := PropsFromProducer(func() Actor {
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

func TestResumeDirectiveKeepsState(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	props := PropsFromProducer(func() Actor {
		count := 0
		return ReceiveFunc(func(c *Context) {
			switch m := c.Message().(type) {
			case string:
				panic("kaboom")
			case request:
				count++
				m.reply <- count
			}
		})
	})
	props.strategy = SupervisorStrategy{Directive: DirectiveResume}
	pid := sys.Spawn(props)
	if r := call(t, sys, pid, "a"); r != 1 {
		t.Fatalf("r=%v", r)
	}
	sys.Send(pid, "boom")
	if r := call(t, sys, pid, "b"); r != 2 {
		t.Fatalf("state lost on resume: r=%v", r)
	}
}

func TestStopDirective(t *testing.T) {
	sys := NewSystem("t")
	props := PropsOf(func(c *Context) {
		if c.Message() == "boom" {
			panic("kaboom")
		}
	})
	props.strategy = SupervisorStrategy{Directive: DirectiveStop}
	pid := sys.Spawn(props)
	sys.Send(pid, "boom")
	deadline := time.Now().Add(waitTimeout)
	for pid.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("actor not stopped after panic with stop directive")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRestartBudgetStopsActor(t *testing.T) {
	sys := NewSystem("t")
	props := PropsOf(func(c *Context) {
		if c.Message() == "boom" {
			panic("kaboom")
		}
	})
	props.strategy = SupervisorStrategy{Directive: DirectiveRestart, MaxRestarts: 3, WindowSeconds: 60}
	pid := sys.Spawn(props)
	for i := 0; i < 10; i++ {
		sys.Send(pid, "boom")
	}
	deadline := time.Now().Add(waitTimeout)
	for pid.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("actor not stopped after exceeding restart budget")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sys.StatsSnapshot().Restarts; got > 3 {
		t.Fatalf("restarted %d times, budget was 3", got)
	}
}

func TestNamedSpawnAndLookup(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	pid, err := sys.SpawnNamed(echoProps(), "vessel-123")
	if err != nil {
		t.Fatal(err)
	}
	if got := lookup(sys, "vessel-123"); got != pid {
		t.Fatalf("lookup = %v want %v", got, pid)
	}
	if _, err := sys.SpawnNamed(echoProps(), "vessel-123"); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if lookup(sys, "no-such") != nil {
		t.Fatal("unknown lookup must be nil")
	}
}

func TestLookupAfterStopIsNil(t *testing.T) {
	sys := NewSystem("t")
	pid, _ := sys.SpawnNamed(echoProps(), "temp")
	stopWait(t, sys, pid)
	if lookup(sys, "temp") != nil {
		t.Fatal("stopped actor must be unregistered")
	}
	// Name is reusable after stop.
	if _, err := sys.SpawnNamed(echoProps(), "temp"); err != nil {
		t.Fatalf("name not reusable: %v", err)
	}
}

func TestGetOrSpawnConcurrent(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	var spawned int32
	props := PropsFromProducer(func() Actor {
		atomic.AddInt32(&spawned, 1)
		return echoProps().producer()
	})
	const goroutines = 32
	pids := make([]*PID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pid, _ := sys.GetOrSpawn("cell-42", props)
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

func TestEventStreamPubSub(t *testing.T) {
	es := NewEventStream()
	var got []any
	unsub := es.Subscribe(func(e any) { got = append(got, e) })
	es.Publish(1)
	es.Publish("two")
	unsub()
	es.Publish(3)
	if len(got) != 2 || got[0] != 1 || got[1] != "two" {
		t.Fatalf("got = %v", got)
	}
	if n := es.subscriptions(); n != 0 {
		t.Fatalf("subscriptions remain: %d", n)
	}
}

func TestEventStreamTypedSubscription(t *testing.T) {
	es := NewEventStream()
	var ints []int
	unsub := SubscribeType(es, func(v int) { ints = append(ints, v) })
	defer unsub()
	es.Publish(1)
	es.Publish("skip")
	es.Publish(2)
	if len(ints) != 2 || ints[0] != 1 || ints[1] != 2 {
		t.Fatalf("ints = %v", ints)
	}
}

func TestFailureEventPublished(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	failures := make(chan FailureEvent, 1)
	unsub := SubscribeType(sys.Events(), func(f FailureEvent) {
		select {
		case failures <- f:
		default:
		}
	})
	defer unsub()
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if c.Message() == "boom" {
			panic("kaboom")
		}
	}))
	sys.Send(pid, "boom")
	select {
	case f := <-failures:
		if f.Reason != "kaboom" || f.Message != "boom" {
			t.Fatalf("failure event = %+v", f)
		}
	case <-time.After(waitTimeout):
		t.Fatal("failure event never published")
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
	if nilPID.Name() != "<nil>" {
		t.Fatalf("nil pid name = %q", nilPID.Name())
	}
	sys := NewSystem("t")
	pid, _ := sys.SpawnNamed(echoProps(), "writer")
	if pid.Name() != "writer" {
		t.Fatalf("name = %q", pid.Name())
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
