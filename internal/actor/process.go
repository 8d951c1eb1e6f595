package actor

import (
	"sync/atomic"
	"time"
)

// process is the runtime representation of one actor: its mailbox, the
// current behaviour instance and its supervision bookkeeping.
type process struct {
	system *System
	pid    *PID
	props  *Props
	mb     *mailbox

	actor Actor // current instance; replaced on restart

	dead int32 // 1 once Stopped has been delivered

	// restartTimes holds the restarts inside the current restartWindow.
	// Only the goroutine holding the mailbox schedule token touches it.
	restartTimes []time.Time

	stopping int32
	done     chan struct{} // closed when the actor is fully stopped

	// ctx is reused for every delivery to this process. Deliveries are
	// serial (user invokes, lifecycle invokes and doStop all run on the
	// goroutine holding the mailbox schedule token), and a Context is
	// documented as valid only for the duration of its Receive call, so
	// one struct per process replaces one heap allocation per message.
	ctx Context
}

// Supervision: a panicking actor is replaced by a fresh instance from
// its Producer, keeping its mailbox, unless that would be its
// (maxRestarts+1)-th restart within restartWindow; then it is stopped.
const (
	maxRestarts   = 10
	restartWindow = time.Minute
)

func (p *process) sendUser(msg any) {
	if atomic.LoadInt32(&p.dead) == 1 {
		p.system.deadLetters(1)
		return
	}
	p.mb.pushUser(msg)
	p.schedule()
}

// sendUserBatch enqueues msgs in order with one mailbox lock and one
// schedule transition. A target found dead routes the whole batch to
// dead letters, matching sendUser.
func (p *process) sendUserBatch(msgs []any) {
	if atomic.LoadInt32(&p.dead) == 1 {
		p.system.deadLetters(len(msgs))
		return
	}
	p.mb.pushUserBatch(msgs)
	p.schedule()
}

func (p *process) sendSystem(msg any) {
	if atomic.LoadInt32(&p.dead) == 1 {
		return
	}
	p.mb.pushSystem(msg)
	p.schedule()
}

func (p *process) schedule() {
	if p.mb.trySchedule() {
		go p.run()
	}
}

// run drains the mailbox until it is empty. The consumer-side cursors
// are only read while this goroutine holds the schedule token; once it
// has released the token (setIdle) a new run may already be popping, so
// the re-check looks at producer-side state only. A sender can pass the
// dead check just before the actor dies and push after doStop's flush:
// every run that sees the actor dead therefore flushes the user lane
// again, so such a message is dead-lettered rather than stranded.
func (p *process) run() {
	for {
		p.processBatch()
		if atomic.LoadInt32(&p.dead) == 1 {
			p.flushUser()
		} else if p.mb.buffered() {
			continue // throughput spent with drained work still in hand
		}
		p.mb.setIdle()
		// Work arrived between the drain and setIdle; try to take the
		// mailbox back. Losing the race means another goroutine has it.
		if !p.mb.pending() || !p.mb.trySchedule() {
			return
		}
	}
}

// flushUser routes every queued user message to dead letters.
func (p *process) flushUser() {
	for {
		if _, ok := p.mb.popUser(); !ok {
			return
		}
		p.system.deadLetters(1)
	}
}

func (p *process) processBatch() {
	for i := 0; i < throughput; i++ {
		if msg, ok := p.mb.popSystem(); ok {
			p.handleSystem(msg)
			continue
		}
		if atomic.LoadInt32(&p.dead) == 1 {
			return
		}
		msg, ok := p.mb.popUser()
		if !ok {
			return
		}
		p.invoke(msg)
	}
}

func (p *process) handleSystem(msg any) {
	switch msg.(type) {
	case sysStarted:
		p.invokeLifecycle(Started{})
	case sysStop:
		p.doStop()
	}
}

// invoke delivers one user message to the behaviour, converting panics
// into supervision decisions.
func (p *process) invoke(msg any) {
	if _, ok := msg.(poisonPill); ok {
		p.doStop()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.handleFailure()
		}
	}()
	p.ctx = Context{system: p.system, self: p.pid, message: msg}
	p.actor.Receive(&p.ctx)
	atomic.AddUint64(&p.system.stats.MessagesProcessed, 1)
}

// invokeLifecycle delivers a lifecycle message, counting and swallowing
// a panic (a panic during Stopped must not prevent the stop from
// completing).
func (p *process) invokeLifecycle(msg any) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddUint64(&p.system.stats.Failures, 1)
		}
	}()
	p.ctx = Context{system: p.system, self: p.pid, message: msg}
	p.actor.Receive(&p.ctx)
}

// handleFailure applies the supervision policy to an actor whose
// Receive panicked; the failing message is dropped.
func (p *process) handleFailure() {
	atomic.AddUint64(&p.system.stats.Failures, 1)
	if p.restartBudgetExceeded() {
		p.doStop()
		return
	}
	p.actor = p.props.producer(p.pid.key)
	atomic.AddUint64(&p.system.stats.Restarts, 1)
	p.invokeLifecycle(Started{})
}

// restartBudgetExceeded records a restart and reports whether it is
// more than maxRestarts within restartWindow.
func (p *process) restartBudgetExceeded() bool {
	now := time.Now()
	cutoff := now.Add(-restartWindow)
	keep := p.restartTimes[:0]
	for _, t := range p.restartTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	p.restartTimes = append(keep, now)
	return len(p.restartTimes) > maxRestarts
}

// doStop runs the stop sequence inline on the processing goroutine:
// Stopping -> Stopped -> unregister + dead-letter the remaining queue.
func (p *process) doStop() {
	if !atomic.CompareAndSwapInt32(&p.stopping, 0, 1) {
		return
	}
	p.invokeLifecycle(Stopping{})
	p.invokeLifecycle(Stopped{})
	atomic.StoreInt32(&p.dead, 1)
	p.system.unregister(p.pid)
	atomic.AddUint64(&p.system.stats.ActorsStopped, 1)

	// Flush whatever is still queued to dead letters.
	p.flushUser()
	close(p.done)
}
