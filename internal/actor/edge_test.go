package actor

import "testing"

func TestGetOrSpawnRespawnAfterStop(t *testing.T) {
	sys := NewSystem("t")
	props := echoProps()
	pid1, spawned := sys.GetOrSpawn(Key{Kind: 1, ID: 7}, props)
	if !spawned {
		t.Fatal("first call must spawn")
	}
	stopWait(t, sys, pid1)
	pid2, spawned := sys.GetOrSpawn(Key{Kind: 1, ID: 7}, props)
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
	if got := sys.StatsSnapshot().Failures; got != 1 {
		t.Fatalf("failures = %d, want the lifecycle panic counted once", got)
	}
}
