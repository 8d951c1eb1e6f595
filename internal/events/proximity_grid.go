package events

import (
	"math"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// GridProximityDetector is the proximity detector the cell actors run.
// It emits exactly the events of the map-scan oracle in oracle_test.go
// (every tracked vessel scanned on every report); the cost model
// differs:
//
//   - Tracked vessels live in a flat slot arena bucketed into a spatial
//     micro-grid of ThresholdMeters-sized sub-bins, so an update probes
//     the handful of neighbor bins that can possibly hold a partner
//     instead of scanning every vessel in the cell.
//   - The pair cooldown uses a packed uint64 key (no fmt.Sprintf) and a
//     time-bucketed expiry ring, fixing the oracle's unbounded cooldown
//     map.
//   - Staleness eviction runs off a time-ordered ring, so updates never
//     iterate dead vessels; the oracle's opportunistic >2×TimeWindow
//     delete is still applied inline to probed entries, which is what
//     keeps the two detectors' emitted events identical (eviction
//     timing affects memory only, never events, because the TimeWindow
//     gate already excludes anything the ring might still hold).
//
// Steady-state Update performs zero heap allocations (see the alloc
// gate in grid_alloc_test.go). The detector is not safe for concurrent
// use; each cell actor owns one.
type GridProximityDetector struct {
	cfg ProximityConfig

	// Local equirectangular bin projection, fixed at the first update
	// so bin coordinates stay stable for the detector's lifetime.
	originSet  bool
	refLat     float64
	refLon     float64
	latStepDeg float64
	invLatStep float64
	invLonStep float64

	slots []proxSlot
	free  []int32
	index map[ais.MMSI]int32
	bins  map[binKey][]int32

	ring evictRing

	// cooldown maps packed pair keys to suppression deadlines. cdRing
	// buckets the deadlines into cdWidthNs-wide windows so expiry pops
	// whole buckets instead of scanning the map; refreshed pairs are
	// simply recorded again in a later bucket, and the deadline
	// double-check on expiry keeps refreshed entries alive.
	cooldown  map[uint64]time.Time
	cdRing    bucketRing
	cdWidthNs int64

	// Reused hot-path scratch.
	out   []Event
	stale []int32

	stats DetectorStats
}

// proxSlot is one tracked vessel in the arena.
type proxSlot struct {
	pos geo.Point
	at  time.Time
	// atNs mirrors at for branch-free staleness arithmetic.
	atNs int64
	// ringNs is the stamp of the slot's outstanding eviction-ring
	// record; every live slot has exactly one.
	ringNs int64
	mmsi   ais.MMSI
	gen    uint32
	bin    binKey
	binIdx int32
	live   bool
}

// NewGridProximityDetector creates an empty grid detector.
func NewGridProximityDetector(cfg ProximityConfig) *GridProximityDetector {
	if cfg.ThresholdMeters <= 0 {
		cfg = DefaultProximityConfig()
	}
	w := int64(cfg.Cooldown) / 4
	if w < int64(time.Second) {
		w = int64(time.Second)
	}
	return &GridProximityDetector{
		cfg:       cfg,
		index:     make(map[ais.MMSI]int32),
		bins:      make(map[binKey][]int32),
		cooldown:  make(map[uint64]time.Time),
		cdWidthNs: w,
	}
}

func (g *GridProximityDetector) setOrigin(pos geo.Point) {
	g.originSet = true
	g.refLat, g.refLon = pos.Lat, pos.Lon
	g.latStepDeg = g.cfg.ThresholdMeters / perLatMeters
	g.invLatStep = 1 / g.latStepDeg
	lonStepDeg := g.cfg.ThresholdMeters / (perLatMeters * cosClamped(math.Abs(g.refLat)+latSlackDeg))
	g.invLonStep = 1 / lonStepDeg
}

func (g *GridProximityDetector) binOf(pos geo.Point) (bx, by int32) {
	bx = int32(math.Floor((pos.Lon - g.refLon) * g.invLonStep))
	by = int32(math.Floor((pos.Lat - g.refLat) * g.invLatStep))
	return bx, by
}

// lonReachBins returns how many longitude bins to probe on each side of
// the update's own bin. Bin height is exactly ThresholdMeters of
// latitude, so ±1 latitude bin always suffices; bin width was fixed
// from the origin latitude, so the longitude reach is recomputed from
// the update's own latitude: a partner within ThresholdMeters at
// latitude L (hence within one lat bin, i.e. |mean latitude| below
// |L|+latStepDeg) spans at most threshold/(perLat·cos(|L|+latStepDeg))
// degrees of longitude. For any position inside the origin's slack band
// this is 1; positions far outside the band widen the probe instead of
// missing pairs.
func (g *GridProximityDetector) lonReachBins(lat float64) int32 {
	spanDeg := g.cfg.ThresholdMeters / (perLatMeters * cosClamped(math.Abs(lat)+g.latStepDeg))
	r := int32(math.Ceil(spanDeg * g.invLonStep))
	if r < 1 {
		r = 1
	}
	if r > 1024 {
		r = 1024
	}
	return r
}

// Update feeds one position report and returns any proximity events it
// completes. The returned slice is reused by the next Update call.
func (g *GridProximityDetector) Update(mmsi ais.MMSI, pos geo.Point, at time.Time) []Event {
	g.out = g.out[:0]
	if !g.originSet {
		g.setOrigin(pos)
	}
	atNs := at.UnixNano()
	g.expireCooldowns(at, atNs)
	g.evictStale(atNs)

	bx, by := g.binOf(pos)
	dxr := g.lonReachBins(pos.Lat)
	g.stale = g.stale[:0]
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := -dxr; dx <= dxr; dx++ {
			for _, si := range g.bins[makeBinKey(bx+dx, by+dy)] {
				s := &g.slots[si]
				if s.mmsi == mmsi {
					continue
				}
				g.stats.Candidates++
				dt := at.Sub(s.at)
				if dt < 0 {
					dt = -dt
				}
				if dt > g.cfg.TimeWindow {
					// Same opportunistic drop as the oracle; deferred so
					// the bin slice stays stable while iterated.
					if at.Sub(s.at) > 2*g.cfg.TimeWindow {
						g.stale = append(g.stale, si)
					}
					continue
				}
				g.stats.Checked++
				d := geo.FastDistance(pos, s.pos)
				if d > g.cfg.ThresholdMeters {
					continue
				}
				key := PairKey(mmsi, s.mmsi)
				if until, ok := g.cooldown[key]; ok && at.Before(until) {
					continue
				}
				until := at.Add(g.cfg.Cooldown)
				g.cooldown[key] = until
				g.armCooldownExpiry(key, until.UnixNano())
				g.stats.Emitted++
				g.out = append(g.out, Event{
					Kind:       KindProximity,
					A:          mmsi,
					B:          s.mmsi,
					At:         at,
					DetectedAt: at,
					Pos:        geo.Midpoint(pos, s.pos),
					Meters:     d,
				})
			}
		}
	}
	for _, si := range g.stale {
		g.freeSlot(si)
		g.stats.Evicted++
	}

	// Refresh (or insert) the reporting vessel's own slot.
	g.Seed(mmsi, pos, at)
	return g.out
}

// Seed inserts or refreshes a vessel without running detection — the
// bulk-preload path benchmarks and state handoff use. Update calls it
// for its own-slot refresh, so Seed and Update insert identically.
func (g *GridProximityDetector) Seed(mmsi ais.MMSI, pos geo.Point, at time.Time) {
	if !g.originSet {
		g.setOrigin(pos)
	}
	atNs := at.UnixNano()
	bx, by := g.binOf(pos)
	nk := makeBinKey(bx, by)
	if si, ok := g.index[mmsi]; ok {
		s := &g.slots[si]
		if s.bin != nk {
			g.removeFromBin(si)
			g.addToBin(si, nk)
		}
		s.pos, s.at, s.atNs = pos, at, atNs
		// Push a fresh ring record; the previous one is superseded (its
		// ringNs no longer matches) and will be skipped when popped.
		// One push per refresh keeps the ring in strict time order, so
		// eviction fires on exactly the first update after the slot
		// turns stale — the same instant the oracle's full scan would
		// have dropped the entry.
		s.ringNs = atNs
		g.ring.push(evictRec{slot: si, gen: s.gen, atNs: atNs})
		return
	}
	si := g.allocSlot()
	s := &g.slots[si]
	s.mmsi, s.pos, s.at, s.atNs, s.live = mmsi, pos, at, atNs, true
	s.ringNs = atNs
	g.index[mmsi] = si
	g.addToBin(si, nk)
	g.ring.push(evictRec{slot: si, gen: s.gen, atNs: atNs})
}

// evictStale pops expired ring records. Every insert and refresh pushes
// a record stamped with the update time, so under a monotone report
// clock the ring is in strict time order and a slot's latest record
// expires exactly when the slot turns stale; earlier records of a
// refreshed slot are recognised by their outdated ringNs and skipped.
// Ring memory is bounded by the updates inside one staleness horizon.
func (g *GridProximityDetector) evictStale(atNs int64) {
	horizon := 2 * int64(g.cfg.TimeWindow)
	for g.ring.n > 0 {
		rec := g.ring.peek()
		if atNs-rec.atNs <= horizon {
			break
		}
		g.ring.pop()
		s := &g.slots[rec.slot]
		if !s.live || s.gen != rec.gen || s.ringNs != rec.atNs {
			continue // superseded record
		}
		g.freeSlot(rec.slot)
		g.stats.Evicted++
	}
}

// armCooldownExpiry records the pair key in the bucket covering its
// deadline. Deadlines arrive in near-monotone order (constant Cooldown
// added to the report clock); a regressing clock lands keys in the
// newest bucket, which expires them late, never early — and the
// deadline double-check in expireCooldowns keeps suppression exact
// either way.
func (g *GridProximityDetector) armCooldownExpiry(key uint64, untilNs int64) {
	start := floorDiv(untilNs, g.cdWidthNs) * g.cdWidthNs
	b := g.cdRing.tail()
	if b == nil || b.startNs < start {
		b = g.cdRing.push(start)
	}
	b.keys = append(b.keys, key)
}

// expireCooldowns drops cooldown entries whose bucket lies wholly in
// the past. Every deadline in a popped bucket is below startNs+width ≤
// now, so the per-key check only protects entries refreshed into a
// later bucket.
func (g *GridProximityDetector) expireCooldowns(at time.Time, atNs int64) {
	for g.cdRing.n > 0 {
		b := g.cdRing.peek()
		if b.startNs+g.cdWidthNs > atNs {
			break
		}
		for _, key := range b.keys {
			if until, ok := g.cooldown[key]; ok && !at.Before(until) {
				delete(g.cooldown, key)
			}
		}
		g.cdRing.pop()
	}
}

func (g *GridProximityDetector) allocSlot() int32 {
	if n := len(g.free); n > 0 {
		si := g.free[n-1]
		g.free = g.free[:n-1]
		return si
	}
	g.slots = append(g.slots, proxSlot{})
	return int32(len(g.slots) - 1)
}

func (g *GridProximityDetector) freeSlot(si int32) {
	s := &g.slots[si]
	g.removeFromBin(si)
	delete(g.index, s.mmsi)
	s.live = false
	s.gen++
	g.free = append(g.free, si)
}

func (g *GridProximityDetector) addToBin(si int32, k binKey) {
	ids := g.bins[k]
	g.slots[si].bin = k
	g.slots[si].binIdx = int32(len(ids))
	g.bins[k] = append(ids, si)
}

// removeFromBin swap-removes the slot from its bin's member slice.
func (g *GridProximityDetector) removeFromBin(si int32) {
	s := &g.slots[si]
	ids := g.bins[s.bin]
	last := len(ids) - 1
	moved := ids[last]
	ids[s.binIdx] = moved
	g.slots[moved].binIdx = s.binIdx
	ids = ids[:last]
	if len(ids) == 0 {
		delete(g.bins, s.bin)
	} else {
		g.bins[s.bin] = ids
	}
}

// Size returns the number of vessels tracked.
func (g *GridProximityDetector) Size() int { return len(g.index) }

// Stats returns the cumulative hot-path counters.
func (g *GridProximityDetector) Stats() DetectorStats { return g.stats }
