package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the striped (sharded) observability primitives of the
// hot message path. A single mutex would serialise every observation
// system-wide; at the paper's Figure 6 scale (170K+ live vessel actors
// reporting concurrently) that lock is a global contention point. These
// spread observations over padded per-shard slots — callers pass a
// cheap routing hint (the MMSI, a hash, any stable integer) — and merge
// only when a snapshot is taken.

// mix64 is the SplitMix64 finalizer: it spreads low-entropy hints
// (sequential MMSIs, small worker ids) over the full word so the shard
// mask sees uniform bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// nextPow2 rounds n up to a power of two, minimum 1.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// defaultShards is sized past current core counts; each shard costs one
// cache line.
const defaultShards = 16

// counterShard is one padded counter slot; the pad keeps neighbouring
// shards off the same cache line so increments don't false-share.
type counterShard struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter is a striped counter: increments land on the hinted
// shard's padded slot, Value merges all shards. It trades a slightly
// more expensive read (N loads) for contention-free writes.
type ShardedCounter struct {
	shards []counterShard
	mask   uint64
}

// NewShardedCounter creates a counter striped over the given number of
// shards (rounded up to a power of two; <=0 selects the default).
func NewShardedCounter(shards int) *ShardedCounter {
	if shards <= 0 {
		shards = defaultShards
	}
	n := nextPow2(shards)
	return &ShardedCounter{shards: make([]counterShard, n), mask: uint64(n - 1)}
}

// Inc adds n on the shard selected by hint.
func (c *ShardedCounter) Inc(hint uint64, n int64) {
	c.shards[mix64(hint)&c.mask].v.Add(n)
}

// Value returns the merged count.
func (c *ShardedCounter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// accumShard is one padded (count, sum) pair.
type accumShard struct {
	count atomic.Int64
	sum   atomic.Int64
	_     [48]byte
}

// ShardedAccumulator accumulates integer observations on padded
// per-shard (count, sum) slots and surrenders them wholesale on Drain.
// It decouples high-frequency recording (one padded atomic add per
// observation) from aggregation (a sampler draining at its own pace) —
// the structure behind the Figure 6 moving-average series.
type ShardedAccumulator struct {
	shards []accumShard
	mask   uint64
}

// NewShardedAccumulator creates an accumulator striped over the given
// number of shards (rounded up to a power of two; <=0 selects the
// default).
func NewShardedAccumulator(shards int) *ShardedAccumulator {
	if shards <= 0 {
		shards = defaultShards
	}
	n := nextPow2(shards)
	return &ShardedAccumulator{shards: make([]accumShard, n), mask: uint64(n - 1)}
}

// Add records one observation on the shard selected by hint.
func (a *ShardedAccumulator) Add(hint uint64, v int64) {
	sh := &a.shards[mix64(hint)&a.mask]
	sh.count.Add(1)
	sh.sum.Add(v)
}

// Drain atomically takes and zeroes every shard, returning the merged
// (count, sum) since the previous drain. An Add racing the two swaps of
// its shard can land its count in one drain and its sum in the next;
// the skew is one observation per shard and washes out of any windowed
// mean, which is the intended consumer.
func (a *ShardedAccumulator) Drain() (count, sum int64) {
	for i := range a.shards {
		count += a.shards[i].count.Swap(0)
		sum += a.shards[i].sum.Swap(0)
	}
	return count, sum
}

// latencyShard is one stripe of a ShardedLatencyRecorder: its own
// mutex, ring of exact samples and running aggregates.
type latencyShard struct {
	mu      sync.Mutex
	samples []time.Duration
	cap     int
	count   int64
	sum     time.Duration
	max     time.Duration
	_       [32]byte
}

func (sh *latencyShard) observe(d time.Duration) {
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

// ShardedLatencyRecorder keeps exact samples up to a capacity, then
// overwrites them ring-style so quantiles reflect recent behaviour.
// Observations take only their shard's mutex, and Snapshot merges the
// shards (concatenating the sample rings before computing quantiles).
type ShardedLatencyRecorder struct {
	shards []latencyShard
	mask   uint64
}

// NewShardedLatencyRecorder stripes up to capacity exact samples over
// the given number of shards (rounded up to a power of two; <=0 selects
// the default; capacity <=0 selects 1<<16).
func NewShardedLatencyRecorder(shards, capacity int) *ShardedLatencyRecorder {
	if shards <= 0 {
		shards = defaultShards
	}
	if capacity <= 0 {
		capacity = 1 << 16
	}
	n := nextPow2(shards)
	perShard := capacity / n
	if perShard < 1 {
		perShard = 1
	}
	l := &ShardedLatencyRecorder{shards: make([]latencyShard, n), mask: uint64(n - 1)}
	for i := range l.shards {
		l.shards[i].cap = perShard
	}
	return l
}

// Observe records one duration on the shard selected by hint.
func (l *ShardedLatencyRecorder) Observe(hint uint64, d time.Duration) {
	l.shards[mix64(hint)&l.mask].observe(d)
}

// Snapshot merges every shard into one summary.
func (l *ShardedLatencyRecorder) Snapshot() Snapshot {
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
