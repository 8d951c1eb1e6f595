package actor

import (
	"testing"
	"time"
)

// The runtime's observation seams: ways for this package's tests to
// subscribe to the event stream, read the registry and wait on a stop.
// Production code never calls them.

const waitTimeout = 5 * time.Second

// Events returns the system event stream.
func (s *System) Events() *EventStream { return s.events }

// Subscribe registers a handler for every published event and returns
// an unsubscribe function.
func (e *EventStream) Subscribe(fn func(any)) (unsubscribe func()) {
	e.mu.Lock()
	id := e.nextID
	e.nextID++
	e.subs[id] = fn
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		delete(e.subs, id)
		e.mu.Unlock()
	}
}

// SubscribeType registers a handler invoked only for events of type T.
func SubscribeType[T any](e *EventStream, fn func(T)) (unsubscribe func()) {
	return e.Subscribe(func(ev any) {
		if v, ok := ev.(T); ok {
			fn(v)
		}
	})
}

// subscriptions returns the number of active subscriptions.
func (e *EventStream) subscriptions() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.subs)
}

// lookup returns the live PID registered under name, or nil, through
// the registry read GetOrSpawn uses (dead entries are removed eagerly).
func lookup(s *System, name string) *PID {
	return s.shardOf(name).lookup(name, s.hook())
}

// registered returns the number of named-registry entries per shard.
func registered(s *System) []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		s.shards[i].m.Range(func(_, _ any) bool {
			out[i]++
			return true
		})
	}
	return out
}

// registrySize returns the number of named-registry entries.
func registrySize(s *System) int {
	total := 0
	for _, n := range registered(s) {
		total += n
	}
	return total
}

// stopWait stops pid and waits until it has fully stopped.
func stopWait(t testing.TB, s *System, pid *PID) {
	t.Helper()
	s.Stop(pid)
	waitStopped(t, pid)
}

// poisonWait poisons pid and waits until it has fully stopped.
func poisonWait(t testing.TB, s *System, pid *PID) {
	t.Helper()
	s.Poison(pid)
	waitStopped(t, pid)
}

func waitStopped(t testing.TB, pid *PID) {
	t.Helper()
	select {
	case <-pid.process.done:
	case <-time.After(waitTimeout):
		t.Fatalf("%v did not stop within %v", pid, waitTimeout)
	}
}

// request is a message carrying its own reply channel: the way a
// caller outside the actor system waits on an actor's answer.
type request struct {
	body  any
	reply chan any
}

// echoProps replies to every request with its body.
func echoProps() *Props {
	return PropsOf(func(c *Context) {
		if r, ok := c.Message().(request); ok {
			r.reply <- r.body
		}
	})
}

// call sends body to pid as a request and waits for the reply.
func call(t testing.TB, s *System, pid *PID, body any) any {
	t.Helper()
	reply := make(chan any, 1)
	s.Send(pid, request{body: body, reply: reply})
	select {
	case r := <-reply:
		return r
	case <-time.After(waitTimeout):
		t.Fatalf("no reply to %v from %v", body, pid)
		return nil
	}
}
