package metrics

import (
	"math"
	"math/bits"
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

// Latency histogram layout. Durations are bucketed log-linearly in
// nanoseconds: values below latSub each get an exact bucket; above that,
// every power of two [2^e, 2^(e+1)) splits into latSub equal sub-buckets
// of width 2^(e-latSubBits), at most 1/latSub (6.25 %) of the bucket's
// lower bound. Durations from 2^(latMaxExp+1) ns (about 9.8 hours) up
// share one top bucket: 673 buckets, 5.5 KB per shard.
const (
	latSubBits = 4
	latSub     = 1 << latSubBits
	latMaxExp  = 44
	latTop     = (latMaxExp - latSubBits + 2) * latSub // index of the shared top bucket
	latBuckets = latTop + 1
)

// latBucket maps a duration to its bucket index; negative durations
// count as zero.
func latBucket(d time.Duration) int {
	if d < latSub {
		if d < 0 {
			return 0
		}
		return int(d)
	}
	e := bits.Len64(uint64(d)) - 1
	if e > latMaxExp {
		return latTop
	}
	sub := int(uint64(d)>>(e-latSubBits)) & (latSub - 1)
	return (e-latSubBits+1)*latSub + sub
}

// latUpper is the largest duration bucket i holds. The top bucket has
// no finite bound; Snapshot clamps every quantile to the exact Max.
func latUpper(i int) time.Duration {
	if i < latSub {
		return time.Duration(i)
	}
	if i == latTop {
		return math.MaxInt64
	}
	e := i/latSub + latSubBits - 1
	sub := i % latSub
	return time.Duration(uint64(latSub+sub+1)<<(e-latSubBits)) - 1
}

// latencyShard is one stripe of a ShardedLatencyRecorder: exact sum and
// max beside a log-linear bucket count. Its count is the bucket total.
type latencyShard struct {
	sum     atomic.Int64
	max     atomic.Int64
	_       [48]byte // keep sum/max off the neighbouring shard's buckets
	buckets [latBuckets]atomic.Int64
	_       [56]byte // round the shard up to whole cache lines
}

// ShardedLatencyRecorder summarises every duration it has observed
// since construction in fixed memory: per shard, an exact sum and max
// plus a log-linear histogram (see latBucket). Observe is lock-free
// and allocation-free; Snapshot merges the shards on the stack and
// reads the quantiles off the cumulative bucket counts, so its cost
// does not grow with the number of observations.
type ShardedLatencyRecorder struct {
	shards []latencyShard
	mask   uint64
}

// NewShardedLatencyRecorder stripes the recorder over the given number
// of shards (rounded up to a power of two; <=0 selects the default).
func NewShardedLatencyRecorder(shards int) *ShardedLatencyRecorder {
	if shards <= 0 {
		shards = defaultShards
	}
	n := nextPow2(shards)
	return &ShardedLatencyRecorder{shards: make([]latencyShard, n), mask: uint64(n - 1)}
}

// Observe records one duration on the shard selected by hint. The
// bucket is counted last, so a Snapshot that sees the observation also
// sees its sum and max.
func (l *ShardedLatencyRecorder) Observe(hint uint64, d time.Duration) {
	sh := &l.shards[mix64(hint)&l.mask]
	for cur := sh.max.Load(); int64(d) > cur; cur = sh.max.Load() {
		if sh.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	sh.sum.Add(int64(d))
	sh.buckets[latBucket(d)].Add(1)
}

// Snapshot merges every shard into one summary. Count, Sum, Mean and
// Max are exact; each quantile is the nearest-rank sample's bucket upper bound
// clamped to Max, so it is never below the exact quantile and at most
// 1/16 above it (below the top bucket). Quantiles cover the recorder's
// whole lifetime.
func (l *ShardedLatencyRecorder) Snapshot() Snapshot {
	var (
		s      Snapshot
		sum    int64
		merged [latBuckets]int64
	)
	for i := range l.shards {
		sh := &l.shards[i]
		for b := range sh.buckets {
			merged[b] += sh.buckets[b].Load()
		}
		sum += sh.sum.Load()
		if m := time.Duration(sh.max.Load()); m > s.Max {
			s.Max = m
		}
	}
	for _, c := range merged {
		s.Count += c
	}
	if s.Count == 0 {
		return s
	}
	s.Sum = time.Duration(sum)
	s.Mean = time.Duration(sum / s.Count)
	// Nearest rank, as ceil(q·n)-1 over the sorted samples; the ranks
	// are ascending, so one cumulative walk serves all three.
	qs := [...]*time.Duration{&s.P50, &s.P95, &s.P99}
	ranks := [...]int64{rank(0.50, s.Count), rank(0.95, s.Count), rank(0.99, s.Count)}
	var cum int64
	next := 0
	for b, c := range merged {
		cum += c
		for next < len(ranks) && cum > ranks[next] {
			*qs[next] = min(latUpper(b), s.Max)
			next++
		}
		if next == len(ranks) {
			break
		}
	}
	return s
}

// rank is the zero-based nearest-rank index of quantile q among n
// samples.
func rank(q float64, n int64) int64 {
	r := int64(math.Ceil(q*float64(n))) - 1
	return max(0, min(r, n-1))
}
