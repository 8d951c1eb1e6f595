package pipeline

import (
	"time"

	"seatwin/internal/actor"
)

// passivateCheck is the self-message cell actors use to test for
// idleness.
type passivateCheck struct{}

// passivator stops cell actors whose cell has gone quiet for timeout,
// bounding the live actor population to the active sea areas. A global
// fleet touches millions of hexgrid cells over time; without
// passivation the collision-cell population grows without bound (Akka
// deployments use entity passivation for exactly this).
type passivator struct {
	timeout    time.Duration
	lastActive time.Time
	scheduled  bool
}

// touch records activity and arms the idle check; it returns true when
// the message was a passivateCheck that decided to stop the actor (the
// caller must then not process further).
func (pv *passivator) touch(c *actor.Context) (stopped bool) {
	now := time.Now()
	if _, ok := c.Message().(passivateCheck); ok {
		if now.Sub(pv.lastActive) >= pv.timeout {
			c.Stop()
			return true
		}
		// Still active: re-arm for the remaining window.
		c.SendAfter(pv.timeout-now.Sub(pv.lastActive), c.Self(), passivateCheck{})
		return false
	}
	pv.lastActive = now
	if !pv.scheduled {
		pv.scheduled = true
		c.SendAfter(pv.timeout, c.Self(), passivateCheck{})
	}
	return false
}
