package actor

import "sync"

// EventStream is a simple synchronous publish/subscribe bus carrying
// system events (dead letters, failures). Handlers run on the
// publisher's goroutine and must be fast and non-blocking.
type EventStream struct {
	mu     sync.RWMutex
	nextID int
	subs   map[int]func(any)
}

// NewEventStream creates an empty stream.
func NewEventStream() *EventStream {
	return &EventStream{subs: make(map[int]func(any))}
}

// Publish delivers the event to every subscriber present when the call
// started. The handler list is snapshotted before any handler runs:
// invoking handlers under the read lock would deadlock with Go's
// writer-preferring RWMutex as soon as a handler calls Subscribe or
// unsubscribe (the write-lock request blocks, and with a writer
// waiting, a re-entrant RLock blocks too). The snapshot costs one small
// allocation and gives handlers the usual pub/sub freedom: a handler
// may (un)subscribe, and one (un)subscribing concurrently with Publish
// may or may not see the in-flight event.
func (e *EventStream) Publish(event any) {
	e.mu.RLock()
	handlers := make([]func(any), 0, len(e.subs))
	for _, fn := range e.subs {
		handlers = append(handlers, fn)
	}
	e.mu.RUnlock()
	for _, fn := range handlers {
		fn(event)
	}
}
