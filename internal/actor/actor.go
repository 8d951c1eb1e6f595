// Package actor implements the actor-model runtime the maritime
// forecasting pipeline is built on, playing the role Akka plays in the
// paper: lightweight isolated actors, asynchronous message passing,
// supervision with restarts, dead-letter accounting and a registry of
// entity-keyed actors.
//
// The runtime uses dispatcher-style scheduling rather than one parked
// goroutine per actor: each actor owns a multi-producer mailbox and an
// atomic run state, and a goroutine is only active while the mailbox is
// non-empty. That keeps hundreds of thousands of mostly-idle vessel
// actors cheap — the property the paper's scalability evaluation
// (Figure 6, 170K live actors) depends on.
//
// Typical use:
//
//	sys := actor.NewSystem("seatwin")
//	pid := sys.Spawn(actor.PropsOf(func(c *actor.Context) {
//	        switch msg := c.Message().(type) {
//	        case string:
//	                log.Println("got", msg)
//	        }
//	}))
//	sys.Send(pid, "hello")
package actor

import (
	"fmt"
	"sync/atomic"
)

// Actor is the behaviour of an actor: it is invoked once per message
// with a Context carrying the message and the runtime.
// Receive is never invoked concurrently for the same actor instance.
type Actor interface {
	Receive(c *Context)
}

// ReceiveFunc adapts a plain function to the Actor interface.
type ReceiveFunc func(c *Context)

// Receive implements Actor.
func (f ReceiveFunc) Receive(c *Context) { f(c) }

// Lifecycle messages delivered to actors by the runtime.
type (
	// Started is the first message an actor receives, before any user
	// message, and again after each restart.
	Started struct{}
	// Stopping is delivered when a stop has been requested.
	Stopping struct{}
	// Stopped is the last message an actor receives.
	Stopped struct{}
)

// Key names the entity an actor serves: Kind selects one of the
// registry's tables (vessel, cell, ...), ID the entity within it (an
// MMSI, a hexgrid cell index). Kind must be below Kinds.
type Key struct {
	Kind uint8
	ID   uint64
}

// Kinds is the number of registry tables, one per entity family.
const Kinds = 4

// anonymous is the Kind of an actor started by Spawn; its ID is the
// spawn sequence number and it is in no registry table.
const anonymous = ^uint8(0)

// PID identifies a running actor. PIDs are cheap to copy and safe to
// share across goroutines; sending to a stopped actor's PID routes the
// message to dead letters.
type PID struct {
	key     Key
	process *process
}

// String implements fmt.Stringer: pid://<kind>/<id> for a keyed actor,
// pid://$<n> for the n-th anonymous one.
func (p *PID) String() string {
	switch {
	case p == nil:
		return "pid://<nil>"
	case p.key.Kind == anonymous:
		return fmt.Sprintf("pid://$%d", p.key.ID)
	}
	return fmt.Sprintf("pid://%d/%d", p.key.Kind, p.key.ID)
}

// Alive reports whether the actor behind the PID is still running.
func (p *PID) Alive() bool {
	return p != nil && p.process != nil && atomic.LoadInt32(&p.process.dead) == 0
}

// system-internal control messages (processed ahead of user messages).
type (
	sysStarted struct{}
	sysStop    struct{}
)

// poisonPill travels the user lane so every message enqueued before it
// is processed first; receiving it stops the actor (System.Poison).
type poisonPill struct{}
