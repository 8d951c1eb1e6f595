package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestShardedCounterMergesStripes(t *testing.T) {
	c := NewShardedCounter(8)
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(uint64(w*per+i), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestShardedCounterNegativeAndZeroShards(t *testing.T) {
	c := NewShardedCounter(0) // defaulted
	c.Inc(1, 5)
	c.Inc(2, -2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func TestShardedAccumulatorDrain(t *testing.T) {
	a := NewShardedAccumulator(4)
	for i := 0; i < 100; i++ {
		a.Add(uint64(i), int64(i))
	}
	count, sum := a.Drain()
	if count != 100 || sum != 4950 {
		t.Fatalf("Drain = (%d, %d), want (100, 4950)", count, sum)
	}
	// A drained accumulator is empty.
	count, sum = a.Drain()
	if count != 0 || sum != 0 {
		t.Fatalf("second Drain = (%d, %d), want (0, 0)", count, sum)
	}
}

func TestShardedAccumulatorConcurrent(t *testing.T) {
	a := NewShardedAccumulator(8)
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	var drained struct {
		sync.Mutex
		count, sum int64
	}
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			c, s := a.Drain()
			drained.Lock()
			drained.count += c
			drained.sum += s
			drained.Unlock()
			select {
			case <-stop:
				c, s := a.Drain()
				drained.Lock()
				drained.count += c
				drained.sum += s
				drained.Unlock()
				return
			default:
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Add(uint64(w), 2)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	if drained.count != workers*per || drained.sum != int64(workers*per*2) {
		t.Fatalf("drained (%d, %d), want (%d, %d)",
			drained.count, drained.sum, workers*per, workers*per*2)
	}
}

func TestShardedLatencyRecorderSnapshot(t *testing.T) {
	l := NewShardedLatencyRecorder(4, 1024)
	for i := 1; i <= 100; i++ {
		l.Observe(uint64(i), time.Duration(i)*time.Millisecond)
	}
	s := l.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("Max = %v, want 100ms", s.Max)
	}
	wantMean := 50500 * time.Microsecond // mean of 1..100 ms
	if s.Mean != wantMean {
		t.Fatalf("Mean = %v, want %v", s.Mean, wantMean)
	}
	if s.P50 < 40*time.Millisecond || s.P50 > 60*time.Millisecond {
		t.Fatalf("P50 = %v, out of range", s.P50)
	}
	if s.P99 < 90*time.Millisecond {
		t.Fatalf("P99 = %v, too low", s.P99)
	}
}

func TestShardedLatencyRecorderConcurrent(t *testing.T) {
	l := NewShardedLatencyRecorder(8, 1<<12)
	var wg sync.WaitGroup
	const workers, per = 16, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Observe(uint64(w), time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	s := l.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	if s.Mean != time.Millisecond {
		t.Fatalf("Mean = %v, want 1ms", s.Mean)
	}
}

func TestShardedLatencyRecorderOverCapacity(t *testing.T) {
	l := NewShardedLatencyRecorder(4, 16)
	for i := 0; i < 1000; i++ {
		l.Observe(uint64(i), time.Duration(i)*time.Microsecond)
	}
	s := l.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.P50 <= 0 {
		t.Fatal("quantiles must remain usable past capacity")
	}
}
