package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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

func TestShardedLatencyRecorderSnapshot(t *testing.T) {
	l := NewShardedLatencyRecorder(4)
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
	if s.Sum != 5050*time.Millisecond {
		t.Fatalf("Sum = %v, want 5.05s", s.Sum)
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
	l := NewShardedLatencyRecorder(8)
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

// TestShardedLatencyRecorderSnapshotDuringObserve takes snapshots while
// writers observe: every snapshot is ordered (P50 <= P95 <= P99 <= Max)
// and Count never goes backwards.
func TestShardedLatencyRecorderSnapshotDuringObserve(t *testing.T) {
	l := NewShardedLatencyRecorder(4)
	var wg sync.WaitGroup
	const workers, per = 4, 20000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Observe(uint64(w*per+i), time.Duration(i%2000+1)*time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		s := l.Snapshot()
		if s.Count < last {
			t.Fatalf("Count went back from %d to %d", last, s.Count)
		}
		last = s.Count
		if s.Count > 0 && !(0 < s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("unordered snapshot %+v", s)
		}
	}
	if last != workers*per {
		t.Fatalf("final Count = %d, want %d", last, workers*per)
	}
}

// exactLatencyRecorder is the exact oracle of ShardedLatencyRecorder:
// per-shard mutexes over rings of raw samples, merged and sorted on
// Snapshot. Past capacity it overwrites ring-style, so the parity tests
// size it to hold every sample.
type exactLatencyRecorder struct {
	shards []exactLatencyShard
	mask   uint64
}

type exactLatencyShard struct {
	mu      sync.Mutex
	samples []time.Duration
	cap     int
	count   int64
	sum     time.Duration
	max     time.Duration
}

func newExactLatencyRecorder(shards, capacity int) *exactLatencyRecorder {
	n := nextPow2(shards)
	perShard := max(1, capacity/n)
	l := &exactLatencyRecorder{shards: make([]exactLatencyShard, n), mask: uint64(n - 1)}
	for i := range l.shards {
		l.shards[i].cap = perShard
	}
	return l
}

func (l *exactLatencyRecorder) Observe(hint uint64, d time.Duration) {
	sh := &l.shards[mix64(hint)&l.mask]
	sh.mu.Lock()
	sh.count++
	sh.sum += d
	if d > sh.max {
		sh.max = d
	}
	if len(sh.samples) < sh.cap {
		sh.samples = append(sh.samples, d)
	} else {
		sh.samples[int(sh.count)%sh.cap] = d
	}
	sh.mu.Unlock()
}

func (l *exactLatencyRecorder) Snapshot() Snapshot {
	var (
		s      Snapshot
		sum    time.Duration
		merged []time.Duration
	)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		s.Count += sh.count
		sum += sh.sum
		if sh.max > s.Max {
			s.Max = sh.max
		}
		merged = append(merged, sh.samples...)
		sh.mu.Unlock()
	}
	s.Sum = sum
	if s.Count > 0 {
		s.Mean = time.Duration(int64(sum) / s.Count)
	}
	if len(merged) == 0 {
		return s
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	q := func(f float64) time.Duration {
		idx := int(math.Ceil(f*float64(len(merged)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(merged) {
			idx = len(merged) - 1
		}
		return merged[idx]
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// checkAgainstOracle asserts the histogram's contract against the exact
// recorder fed the same stream: Count, Sum, Mean and Max are
// identical, and each quantile lies in [exact, min(exact+exact/16, Max)].
func checkAgainstOracle(t *testing.T, name string, got, want Snapshot) {
	t.Helper()
	if got.Count != want.Count || got.Sum != want.Sum || got.Mean != want.Mean || got.Max != want.Max {
		t.Fatalf("%s: (Count, Sum, Mean, Max) = (%d, %d, %d, %d), oracle (%d, %d, %d, %d)",
			name, got.Count, got.Sum, got.Mean, got.Max, want.Count, want.Sum, want.Mean, want.Max)
	}
	for _, q := range []struct {
		name       string
		got, exact time.Duration
	}{{"P50", got.P50, want.P50}, {"P95", got.P95, want.P95}, {"P99", got.P99, want.P99}} {
		hi := min(q.exact+q.exact/16, got.Max)
		if q.got < q.exact || q.got > hi {
			t.Errorf("%s: %s = %d ns, want in [%d, %d]", name, q.name, q.got, q.exact, hi)
		}
	}
}

// TestShardedLatencyRecorderMatchesOracle runs seeded streams of every
// shape the recorders see, plus the layout's edges (0 ns, the exact
// sub-16 ns buckets, a few durations past the top bucket), through the
// histogram and the exact oracle side by side.
func TestShardedLatencyRecorderMatchesOracle(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	lognormal := func(median time.Duration, sigma float64) time.Duration {
		return time.Duration(float64(median) * math.Exp(sigma*rng.NormFloat64()))
	}
	streams := []struct {
		name string
		gen  func(i int) time.Duration
	}{
		{"uniform", func(int) time.Duration { return time.Duration(rng.Int63n(int64(10 * time.Millisecond))) }},
		{"lognormal", func(int) time.Duration { return lognormal(200*time.Microsecond, 1) }},
		{"bimodal", func(i int) time.Duration {
			if i%2 == 0 {
				return lognormal(50*time.Microsecond, 0.2)
			}
			return lognormal(20*time.Millisecond, 0.2)
		}},
		{"constant", func(int) time.Duration { return time.Millisecond }},
		{"zero", func(int) time.Duration { return 0 }},
		{"sub16ns", func(int) time.Duration { return time.Duration(rng.Intn(latSub)) }},
		{"edges", func(i int) time.Duration {
			switch {
			case i%5000 == 0:
				return time.Duration(1<<50 + rng.Int63n(1<<40)) // past the top bucket (~13 days)
			case i%3 == 0:
				return time.Duration(rng.Intn(latSub))
			default:
				return lognormal(time.Microsecond, 2)
			}
		}},
	}
	for _, st := range streams {
		l := NewShardedLatencyRecorder(4)
		oracle := newExactLatencyRecorder(4, 4*n)
		for i := 0; i < n; i++ {
			d := st.gen(i)
			l.Observe(uint64(i), d)
			oracle.Observe(uint64(i), d)
		}
		checkAgainstOracle(t, st.name, l.Snapshot(), oracle.Snapshot())
	}
}

// TestShardedLatencyRecorderFixedFootprint pins the fixed-memory
// contract: a million observations allocate nothing, and the lifetime
// quantiles stay inside the oracle bound. The allocation count is
// scoped to the Observe loop through the heap profile: the process-wide
// MemStats.TotalAlloc also counts the runtime's own goroutines, and the
// background scavenger growing a P's timer heap while the loop runs
// made that count flaky.
func TestShardedLatencyRecorderFixedFootprint(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(11))
	stream := make([]time.Duration, n)
	for i := range stream {
		stream[i] = time.Duration(float64(300*time.Microsecond) * math.Exp(1.5*rng.NormFloat64()))
	}
	l := NewShardedLatencyRecorder(4)
	oracle := newExactLatencyRecorder(4, 4*n)
	for i, d := range stream {
		oracle.Observe(uint64(i), d)
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1 // profile every allocation from here on
	observeStream(l, stream)
	runtime.MemProfileRate = rate
	if grew := profiledBytes("metrics.observeStream"); grew != 0 && !raceEnabled {
		t.Fatalf("%d observations allocated %d B, want 0", n, grew)
	}
	checkAgainstOracle(t, "1e6 lognormal", l.Snapshot(), oracle.Snapshot())
}

// observeStream is the measured loop of
// TestShardedLatencyRecorderFixedFootprint: a named frame that every
// allocation it makes carries in the heap profile.
func observeStream(l *ShardedLatencyRecorder, stream []time.Duration) {
	for i, d := range stream {
		l.Observe(uint64(i), d)
	}
}

// profiledBytes returns the bytes the heap profile attributes to stacks
// passing through the function whose name ends in fn, counting freed
// objects too. Allocations made by other goroutines never carry that
// frame.
func profiledBytes(fn string) int64 {
	runtime.GC() // publish the profile up to this point
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasSuffix(f.Function, fn) {
				total += r.AllocBytes
				break
			}
		}
	}
	return total
}

// TestLatencyBucketBounds checks the layout itself: every finite bucket
// ends at latUpper, the next duration opens the next bucket, and no
// bucket is wider than 1/16 of its lower bound.
func TestLatencyBucketBounds(t *testing.T) {
	lo := time.Duration(0)
	for i := 0; i < latTop; i++ {
		hi := latUpper(i)
		if latBucket(lo) != i || latBucket(hi) != i || latBucket(hi+1) != i+1 {
			t.Fatalf("bucket %d = [%d, %d] maps to (%d, %d, next %d)",
				i, lo, hi, latBucket(lo), latBucket(hi), latBucket(hi+1))
		}
		if w := hi - lo + 1; lo >= 16 && w > lo/16 {
			t.Fatalf("bucket %d = [%d, %d] is wider than 1/16 of its lower bound", i, lo, hi)
		}
		lo = hi + 1
	}
	for _, d := range []time.Duration{lo, 2*lo - 1, 1 << 50, math.MaxInt64} {
		if latBucket(d) != latTop {
			t.Fatalf("%d ns maps to bucket %d, want the top bucket %d", d, latBucket(d), latTop)
		}
	}
	if latBucket(-1) != 0 {
		t.Fatal("negative durations must land in bucket 0")
	}
}

var snapshotSink Snapshot

// TestLatencyRecorderZeroAlloc gates the recorder's hot paths: on a
// recorder already holding 10^5 observations, Observe and Snapshot
// allocate nothing.
func TestLatencyRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	l := NewShardedLatencyRecorder(0)
	for i := 0; i < 100_000; i++ {
		l.Observe(uint64(i), time.Duration(i)*time.Microsecond)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		i++
		l.Observe(uint64(i), time.Duration(i)*time.Nanosecond)
	}); a != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { snapshotSink = l.Snapshot() }); a != 0 {
		t.Fatalf("Snapshot allocates %v/op, want 0", a)
	}
}
