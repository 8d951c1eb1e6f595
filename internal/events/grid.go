package events

import (
	"math"

	"seatwin/internal/geo"
)

// Shared primitives of the spatial-grid detector fast paths
// (proximity_grid.go, collision_grid.go): packed pair keys, micro-grid
// bin keys, the local equirectangular projection helpers and the
// staleness eviction ring. See DESIGN.md §16.

// perLatMeters is the length of one degree of latitude — the scale that
// converts the detectors' meter thresholds into degree-sized bins.
const perLatMeters = geo.EarthRadiusMeters * math.Pi / 180

// latSlackDeg widens the latitude band the longitude bin width is
// conservative over. A detector serves one hexgrid cell plus its
// fan-in margin — well under a degree of latitude — so sizing the bins
// for cos(|origin|+1°) keeps the ±1-bin probe sufficient for every
// position a cell can realistically see, and the per-update reach
// computation (which is what correctness rests on) widens the probe
// for anything outside that band.
const latSlackDeg = 1.0

// binKey packs signed 32-bit micro-grid bin coordinates into one map
// key.
type binKey uint64

func makeBinKey(bx, by int32) binKey {
	return binKey(uint64(uint32(bx))<<32 | uint64(uint32(by)))
}

// cosClamped returns cos(latDeg°) clamped away from zero so bin widths
// and probe spans stay finite near the poles (where the equirectangular
// FastDistance underlying all of this is meaningless anyway).
func cosClamped(latDeg float64) float64 {
	if latDeg > 89.9 {
		latDeg = 89.9
	}
	return math.Cos(latDeg * math.Pi / 180)
}

// DetectorStats are cumulative hot-path counters of a grid detector.
// The owner (a single-threaded cell actor) reads them after each Update
// and pushes the deltas into the pipeline's sharded metrics; the
// detectors themselves stay lock-free.
type DetectorStats struct {
	// Candidates counts entries that survived the spatial prune and
	// were inspected pairwise.
	Candidates int64
	// Deferred counts candidates left to the cell that owns the pair
	// (collision only; see GridDetector.SetCell).
	Deferred int64
	// Checked counts exact pairwise checks run (distance checks for
	// proximity, track sweeps for collision).
	Checked int64
	// Emitted counts events returned.
	Emitted int64
	// Evicted counts entries removed by staleness expiry.
	Evicted int64
}

// evictRec is one entry of a detector's staleness ring, recorded when a
// slot was armed: the slot index, the slot generation at arming (slot
// indices are recycled; a generation mismatch marks the record dead)
// and the stamp the expiry countdown runs from.
type evictRec struct {
	atNs int64
	slot int32
	gen  uint32
}

// evictRing is a growable FIFO of evictRecs — the time-ordered eviction
// queue that replaces full-map staleness scans. Capacity is always a
// power of two.
type evictRing struct {
	buf  []evictRec
	head int
	n    int
}

func (r *evictRing) push(rec evictRec) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = rec
	r.n++
}

func (r *evictRing) peek() evictRec { return r.buf[r.head] }

func (r *evictRing) pop() evictRec {
	rec := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return rec
}

func (r *evictRing) grow() {
	nc := len(r.buf) * 2
	if nc == 0 {
		nc = 16
	}
	nb := make([]evictRec, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// cdBucket is one coarse time bucket of cooldown-expiry candidates.
type cdBucket struct {
	startNs int64
	keys    []uint64
}

// bucketRing is a growable FIFO of cdBuckets whose key slices are
// recycled through a spare list — the time-bucketed expiry index that
// keeps the cooldown map bounded without per-entry timers. Capacity is
// always a power of two.
type bucketRing struct {
	buf   []cdBucket
	head  int
	n     int
	spare [][]uint64
}

func (r *bucketRing) peek() *cdBucket { return &r.buf[r.head] }

func (r *bucketRing) tail() *cdBucket {
	if r.n == 0 {
		return nil
	}
	return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// push appends a new bucket with the given start, reusing a spare key
// slice when one is available.
func (r *bucketRing) push(startNs int64) *cdBucket {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := (r.head + r.n) & (len(r.buf) - 1)
	r.n++
	b := &r.buf[i]
	b.startNs = startNs
	if b.keys == nil {
		if n := len(r.spare); n > 0 {
			b.keys = r.spare[n-1][:0]
			r.spare = r.spare[:n-1]
		}
	}
	b.keys = b.keys[:0]
	return b
}

// pop drops the oldest bucket, recycling its key slice.
func (r *bucketRing) pop() {
	b := &r.buf[r.head]
	if cap(b.keys) > 0 {
		r.spare = append(r.spare, b.keys[:0])
	}
	b.keys = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *bucketRing) grow() {
	nc := len(r.buf) * 2
	if nc == 0 {
		nc = 8
	}
	nb := make([]cdBucket, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
