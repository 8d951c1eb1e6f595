package actor

import (
	"testing"
	"time"
)

// The runtime's observation seams: ways for this package's tests to
// read the registry and wait on a stop. Production code never calls
// them.

const waitTimeout = 5 * time.Second

// lookup returns the live PID registered under key, or nil.
func lookup(s *System, key Key) *PID {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if pid := sh.m[key.ID]; pid.Alive() {
		return pid
	}
	return nil
}

// registrySize returns the number of registry entries, live or not yet
// unregistered.
func registrySize(s *System) int {
	n := 0
	s.Each(func(Key, *PID) { n++ })
	return n
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
