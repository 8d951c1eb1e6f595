package actor

import "time"

// Context carries one message delivery: the message itself, the
// receiving actor's identity and the operations an actor may perform
// while processing (send, schedule, stop).
//
// A Context is only valid for the duration of the Receive call it was
// passed to.
type Context struct {
	system  *System
	self    *PID
	message any
}

// Message returns the message being processed.
func (c *Context) Message() any { return c.message }

// Self returns the PID of the processing actor.
func (c *Context) Self() *PID { return c.self }

// Send delivers a fire-and-forget message to target.
func (c *Context) Send(target *PID, msg any) {
	c.system.Send(target, msg)
}

// Stop requests this actor to stop after the current message.
func (c *Context) Stop() {
	c.system.Stop(c.self)
}

// SendAfter schedules msg to be sent to target after the delay. The
// returned timer may be stopped to cancel delivery.
func (c *Context) SendAfter(delay time.Duration, target *PID, msg any) *time.Timer {
	return c.system.SendAfter(delay, target, msg)
}
