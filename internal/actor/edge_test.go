package actor

import (
	"testing"
	"time"
)

func TestGetOrSpawnRespawnAfterStop(t *testing.T) {
	sys := NewSystem("t")
	props := echoProps()
	pid1, spawned := sys.GetOrSpawn("cell-7", props)
	if !spawned {
		t.Fatal("first call must spawn")
	}
	stopWait(t, sys, pid1)
	pid2, spawned := sys.GetOrSpawn("cell-7", props)
	if !spawned {
		t.Fatal("stopped actor must be respawned")
	}
	if pid2 == pid1 {
		t.Fatal("respawn returned the dead PID")
	}
	if r := call(t, sys, pid2, "alive?"); r != "alive?" {
		t.Fatalf("respawned actor replied %v", r)
	}
}

func TestStopNilSafe(t *testing.T) {
	sys := NewSystem("t")
	sys.Stop(nil)                  // no panic
	sys.Poison(nil)                // no panic
	sys.Send(nil, "into the void") // dead letter, no panic
}

func TestLifecyclePanicDoesNotBlockStop(t *testing.T) {
	sys := NewSystem("t")
	pid := sys.Spawn(PropsOf(func(c *Context) {
		if _, ok := c.Message().(Stopping); ok {
			panic("panics during shutdown")
		}
	}))
	stopWait(t, sys, pid)
	if pid.Alive() {
		t.Fatal("actor still alive")
	}
}

func TestRestartingMessageCarriesReason(t *testing.T) {
	sys := NewSystem("t")
	defer sys.Shutdown(time.Second)
	got := make(chan any, 1)
	props := PropsFromProducer(func() Actor {
		return ReceiveFunc(func(c *Context) {
			switch m := c.Message().(type) {
			case Restarting:
				select {
				case got <- m.Reason:
				default:
				}
			case string:
				panic("kaboom-reason")
			}
		})
	})
	pid := sys.Spawn(props)
	sys.Send(pid, "x")
	select {
	case reason := <-got:
		if reason != "kaboom-reason" {
			t.Fatalf("reason = %v", reason)
		}
	case <-time.After(waitTimeout):
		t.Fatal("Restarting never delivered")
	}
}
