package actor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEventStreamPublishSubscribe(t *testing.T) {
	es := NewEventStream()
	var got atomic.Int64
	unsub := es.Subscribe(func(any) { got.Add(1) })
	es.Publish("a")
	es.Publish("b")
	unsub()
	es.Publish("c")
	if got.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", got.Load())
	}
	if n := es.subscriptions(); n != 0 {
		t.Fatalf("len %d after unsubscribe", n)
	}
}

// TestEventStreamReentrantSubscribe: a handler may call Subscribe (or
// its own unsubscribe) during Publish. Before the handler snapshot fix
// this deadlocked: Publish held the read lock while the handler's
// Subscribe requested the write lock, and Go's writer-preferring
// RWMutex admits no new readers with a writer waiting.
func TestEventStreamReentrantSubscribe(t *testing.T) {
	es := NewEventStream()
	var nested atomic.Int64
	var unsubOnce sync.Once
	var unsub func()
	unsub = es.Subscribe(func(ev any) {
		// Re-entrant subscribe AND unsubscribe from inside a handler.
		es.Subscribe(func(any) { nested.Add(1) })
		unsubOnce.Do(func() { unsub() })
	})

	done := make(chan struct{})
	go func() {
		es.Publish("first")
		es.Publish("second")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish deadlocked on a re-entrant Subscribe")
	}
	// First publish: outer handler ran, added one nested handler, then
	// removed itself. Second publish: only the nested handler runs.
	if nested.Load() != 1 {
		t.Fatalf("nested handler ran %d times, want 1", nested.Load())
	}
	if n := es.subscriptions(); n != 1 {
		t.Fatalf("len %d, want 1", n)
	}
}

// TestEventStreamConcurrentPublishSubscribe hammers Publish against
// Subscribe/unsubscribe churn; meaningful under -race.
func TestEventStreamConcurrentPublishSubscribe(t *testing.T) {
	es := NewEventStream()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					unsub := es.Subscribe(func(any) {})
					unsub()
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				es.Publish(j)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
