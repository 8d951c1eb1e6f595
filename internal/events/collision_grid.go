package events

import (
	"math"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// collBinMeters sizes the collision micro-grid bins. Forecast bounding
// circles span a few kilometers (30 minutes of vessel motion), so
// 15 km bins keep each slot registered in a handful of bins while still
// splitting a res-7 collision cell's neighbourhood into enough bins to
// prune far-apart traffic.
const collBinMeters = 15000.0

// sweepBlockTicks is the number of consecutive tick samples one block
// bounding box summarises. A 30-minute S-VRF forecast (121 ticks) makes
// 16 blocks; the ±2-minute slide window spans 17 ticks, so a block of A
// is compared against 3–4 of B's blocks.
const sweepBlockTicks = 8

// GridDetector is the collision detector the collision actors run.
// Until it is told its cell, it emits exactly the events of the
// map-scan oracle in oracle_test.go (CheckPair against every live
// forecast); the cost model differs:
//
//   - Each forecast is interpolated ONCE at insert onto the
//     epoch-aligned checkStep tick grid (see collision.go) into a
//     pooled contiguous sample arena, with per-segment great-circle
//     setup (Haversine + InitialBearing) hoisted out of the per-tick
//     loop, plus a lat/lon bounding box per block of sweepBlockTicks
//     samples. Pair checks then never call interpAt: they sweep the
//     two precomputed arrays with the batch distance kernel
//     geo.FastDistancesInto, skipping every block of A's ticks whose
//     box is provably no closer to B's slide window than the best
//     approach found so far (see sweepPair).
//   - Each slot carries a bounding circle (centroid + radius over the
//     raw forecast points); Update probes a micro-grid of those
//     circles and prunes candidates by circle overlap before the exact
//     (oracle-identical) raw-point prefilter and tick sweep run. The
//     rare track too wide for the grid (one straddling ±180) skips
//     both the grid and the circle prune (see tooWide).
//   - Staleness expiry runs off a time-ordered ring instead of the
//     oracle's full-map scan on every insert; the oracle's eviction
//     cutoff is still applied inline to probed candidates, which keeps
//     emitted events identical regardless of when the ring physically
//     frees a slot.
//   - A detector that knows its cell (SetCell) emits a subset of those
//     events: it sweeps only the pairs it owns, those whose two
//     forecasts' delivery sets (Forecast.Cells) meet first in this
//     cell. Every other cell holding both forecasts defers the pair, so
//     across the cells each pair is swept once.
//
// The detector is not safe for concurrent use; each collision actor
// owns one.
type GridDetector struct {
	cfg      CollisionConfig
	expireNs int64
	// cell is the collision cell this detector serves, 0 when unknown
	// (then every pair is swept, as by the oracle).
	cell uint64

	// slideTicks is ±TemporalThreshold in ticks: the slide lands exactly
	// on tick boundaries, so precomputed samples serve every pair check.
	slideTicks int64
	// pruneMargin is the circle-overlap slack: the oracle's prefilter
	// accepts a pair only if some raw-point distance is at most
	// threshold+prefilterMargin, which bounds the centroid distance by
	// radiusA+radiusB+threshold+prefilterMargin up to FastDistance's
	// non-metricity — absorbed by the generous 25%+1km slack, so the
	// prune never rejects a pair the oracle would accept.
	pruneMargin float64

	originSet  bool
	refLat     float64
	refLon     float64
	invLatStep float64
	invLonStep float64

	slots []collSlot
	free  []int32
	index map[ais.MMSI]int32
	bins  map[binKey][]int32
	// wide lists the registered slots too wide for the micro-grid; every
	// probe visits them. Empty unless a track straddles ±180.
	wide []int32

	ring     evictRing
	probeSeq uint64

	// Reused hot-path scratch.
	out         []Event
	distScratch []float64

	stats DetectorStats
}

// collSlot is one live forecast: its raw points, bounding circle,
// precomputed tick samples with their block boxes and micro-grid
// registration rectangle.
type collSlot struct {
	mmsi    ais.MMSI
	gen     uint32
	live    bool
	stampNs int64

	raw      []ForecastPoint
	centroid geo.Point
	radius   float64
	// cells is the forecast's delivery set, empty when unknown.
	cells []uint64

	firstTick int64
	lastTick  int64
	samples   []geo.Point
	// boxes[i] bounds samples[i*sweepBlockTicks : (i+1)*sweepBlockTicks].
	boxes []blockBox

	// Registration rectangle (inclusive bin ranges; bx0 > bx1 when the
	// slot is not in any bin) and the slot's index inside each bin's
	// member slice, in (by outer, bx inner) order, for O(1) removal.
	// A wide slot sits in d.wide instead (see tooWide).
	bx0, bx1, by0, by1 int32
	binPos             []int32
	wide               bool

	probeSeq uint64
}

// NewGridDetector creates a grid detector whose forecasts expire after
// the given duration (0 means 10 minutes).
//
// cfg must pass cfg.Validate: TemporalThreshold a non-negative whole
// number of 15-second checkSteps (the default 2 minutes is), because
// the sweep slides one precomputed track against the other in whole
// ticks. pipeline.New rejects any other config.
func NewGridDetector(cfg CollisionConfig, expire time.Duration) *GridDetector {
	if expire <= 0 {
		expire = 10 * time.Minute
	}
	d := &GridDetector{
		cfg:      cfg,
		expireNs: int64(expire),
		index:    make(map[ais.MMSI]int32),
		bins:     make(map[binKey][]int32),
	}
	d.slideTicks = int64(cfg.TemporalThreshold / checkStep)
	d.pruneMargin = (cfg.SpatialThresholdMeters+prefilterMarginMeters)*1.25 + 1000
	return d
}

// SetCell tells the detector which collision cell it serves, so it can
// defer the pairs another cell owns (see ownerCell). Call it once,
// before the first Update.
func (d *GridDetector) SetCell(cell uint64) { d.cell = cell }

func (d *GridDetector) setOrigin(pos geo.Point) {
	d.originSet = true
	d.refLat, d.refLon = pos.Lat, pos.Lon
	d.invLatStep = perLatMeters / collBinMeters
	lonStepDeg := collBinMeters / (perLatMeters * cosClamped(math.Abs(pos.Lat)+latSlackDeg))
	d.invLonStep = 1 / lonStepDeg
}

func (d *GridDetector) binX(lon float64) int32 {
	return int32(math.Floor((lon - d.refLon) * d.invLonStep))
}

func (d *GridDetector) binY(lat float64) int32 {
	return int32(math.Floor((lat - d.refLat) * d.invLatStep))
}

// binRect returns the inclusive bin rectangle covering the circle
// (center, radiusMeters). The meter→degree conversions use the largest
// |latitude| the circle touches, so the rectangle always covers the
// circle.
func (d *GridDetector) binRect(center geo.Point, radiusMeters float64) (bx0, bx1, by0, by1 int32) {
	latRDeg := radiusMeters / perLatMeters
	lonRDeg := radiusMeters / (perLatMeters * cosClamped(math.Abs(center.Lat)+latRDeg+0.1))
	bx0, bx1 = d.binX(center.Lon-lonRDeg), d.binX(center.Lon+lonRDeg)
	by0, by1 = d.binY(center.Lat-latRDeg), d.binY(center.Lat+latRDeg)
	return bx0, bx1, by0, by1
}

// tooWide reports whether a bin rectangle spans maxSpan or more bins on
// either axis. Real 30-minute tracks span a few bins. A forecast whose
// raw longitudes straddle ±180 looks ~360° wide, because FastDistance,
// the centroid and the bins all work on raw degrees; so does a
// physically impossible track. The detector keeps such "wide" slots out
// of the micro-grid and pairs them by brute force (see probePairs)
// rather than iterating thousands of bins or missing candidates.
func tooWide(bx0, bx1, by0, by1, maxSpan int32) bool {
	return int64(bx1)-int64(bx0) >= int64(maxSpan) || int64(by1)-int64(by0) >= int64(maxSpan)
}

// Update inserts or refreshes a vessel's forecast and returns the
// collision events it triggers against the other live forecasts. The
// returned slice is reused by the next Update call.
func (d *GridDetector) Update(f Forecast, now time.Time) []Event {
	d.out = d.out[:0]
	nowNs := now.UnixNano()
	d.evictStale(nowNs)

	si := d.insertSlot(f, nowNs)
	if len(f.Points) > 0 {
		d.probePairs(si, f, now, nowNs)
	}
	d.commitSlot(si, f.MMSI, nowNs)
	return d.out
}

// Seed inserts or refreshes a forecast without running detection — the
// bulk-preload path benchmarks and state handoff use.
func (d *GridDetector) Seed(f Forecast, now time.Time) {
	nowNs := now.UnixNano()
	si := d.insertSlot(f, nowNs)
	d.commitSlot(si, f.MMSI, nowNs)
}

// insertSlot drops the vessel's previous forecast (the oracle never
// compares a vessel against itself) and fills a fresh slot, not yet
// registered in the micro-grid.
func (d *GridDetector) insertSlot(f Forecast, nowNs int64) int32 {
	if si, ok := d.index[f.MMSI]; ok {
		d.freeSlot(si)
	}
	si := d.allocSlot()
	d.fillSlot(si, f, nowNs)
	return si
}

// commitSlot makes the filled slot visible: index entry, micro-grid
// registration and eviction-ring arming.
func (d *GridDetector) commitSlot(si int32, mmsi ais.MMSI, nowNs int64) {
	d.index[mmsi] = si
	d.registerSlot(si)
	d.ring.push(evictRec{slot: si, gen: d.slots[si].gen, atNs: nowNs})
}

// fillSlot copies the forecast into the slot's recycled arenas:
// raw points, delivery cells, bounding circle, registration rectangle,
// and the precomputed tick samples with their block boxes.
func (d *GridDetector) fillSlot(si int32, f Forecast, nowNs int64) {
	s := &d.slots[si]
	s.mmsi = f.MMSI
	s.stampNs = nowNs
	s.live = true
	s.raw = s.raw[:0]
	s.cells = append(s.cells[:0], f.Cells...)
	s.samples = s.samples[:0]
	s.boxes = s.boxes[:0]
	s.binPos = s.binPos[:0]
	s.firstTick, s.lastTick = 0, -1
	s.bx0, s.bx1, s.by0, s.by1 = 0, -1, 0, -1
	if len(f.Points) == 0 {
		// Empty forecasts are registered nowhere and can never pair
		// (the oracle's CheckPair bails on them too).
		return
	}
	if !d.originSet {
		d.setOrigin(f.Points[0].Pos)
	}

	var sumLat, sumLon float64
	for _, p := range f.Points {
		s.raw = append(s.raw, p)
		sumLat += p.Pos.Lat
		sumLon += p.Pos.Lon
	}
	n := float64(len(f.Points))
	s.centroid = geo.Point{Lat: sumLat / n, Lon: sumLon / n}
	r := 0.0
	for _, p := range s.raw {
		if dd := geo.FastDistance(s.centroid, p.Pos); dd > r {
			r = dd
		}
	}
	s.radius = r
	if bx0, bx1, by0, by1 := d.binRect(s.centroid, r); tooWide(bx0, bx1, by0, by1, 64) {
		s.wide = true
	} else {
		s.bx0, s.bx1, s.by0, s.by1 = bx0, bx1, by0, by1
	}

	first, last := tickRange(f)
	s.firstTick, s.lastTick = first, last
	if last >= first {
		s.samples = appendTrackSamples(s.samples, f, first, last)
		s.boxes = appendBlockBoxes(s.boxes, s.samples)
	}
}

// blockBox is the lat/lon bounding box of one block of tick samples, in
// raw degrees: longitudes are not wrapped across the antimeridian,
// because geo.FastDistance does not wrap them either.
type blockBox struct {
	minLat, maxLat, minLon, maxLon float64
}

// union returns the smallest box containing both b and o. Like every
// box operation here it propagates NaN (the min/max builtins do), so a
// block holding a NaN sample is never skipped.
func (b blockBox) union(o blockBox) blockBox {
	return blockBox{
		minLat: min(b.minLat, o.minLat), maxLat: max(b.maxLat, o.maxLat),
		minLon: min(b.minLon, o.minLon), maxLon: max(b.maxLon, o.maxLon),
	}
}

// appendBlockBoxes appends one box per sweepBlockTicks consecutive
// samples (the last block may be shorter).
func appendBlockBoxes(dst []blockBox, samples []geo.Point) []blockBox {
	for i := 0; i < len(samples); i += sweepBlockTicks {
		blk := samples[i:min(i+sweepBlockTicks, len(samples))]
		b := blockBox{minLat: blk[0].Lat, maxLat: blk[0].Lat, minLon: blk[0].Lon, maxLon: blk[0].Lon}
		for _, p := range blk[1:] {
			b = b.union(blockBox{minLat: p.Lat, maxLat: p.Lat, minLon: p.Lon, maxLon: p.Lon})
		}
		dst = append(dst, b)
	}
	return dst
}

// minFastDistance returns a lower bound on geo.FastDistance(p, q) for
// every p inside a and q inside b, as computed in floating point.
// FastDistance is R·√((Δlon·cos(mean lat))² + Δlat²) on raw degrees;
// each term is bounded below by the boxes' gap on that axis, and
// cos(mean lat) by cos of the largest |lat| either box reaches. The
// subtractions, products and square root are monotone under rounding,
// so only math.Cos can land an ulp the wrong way — the 1e-9 relative
// shave covers that many times over.
func (a blockBox) minFastDistance(b blockBox) float64 {
	const degToRad = math.Pi / 180
	latGap := max(b.minLat-a.maxLat, a.minLat-b.maxLat, 0)
	lonGap := max(b.minLon-a.maxLon, a.minLon-b.maxLon, 0)
	maxAbsLat := max(math.Abs(a.minLat), math.Abs(a.maxLat), math.Abs(b.minLat), math.Abs(b.maxLat))
	// Clamped at 0 for |lat| > 90, where cos turns negative.
	cos := max(math.Cos(maxAbsLat*degToRad), 0)
	x := lonGap * degToRad * cos
	y := latGap * degToRad
	return geo.EarthRadiusMeters * math.Sqrt(x*x+y*y) * (1 - 1e-9)
}

// appendTrackSamples interpolates the forecast at every tick in
// [first, last]. It replicates interpAt exactly — same segment choice,
// same degenerate-span and zero-distance branches, same
// fraction-of-span arithmetic — but hoists the per-segment great-circle
// setup (Haversine distance and initial bearing) out of the tick loop,
// so each tick costs one geo.Destination instead of three great-circle
// evaluations. The parity tests compare the results against interpAt
// for bitwise equality.
func appendTrackSamples(dst []geo.Point, f Forecast, first, last int64) []geo.Point {
	pts := f.Points
	i := 1
	segSet := false
	var dSeg, brSeg, span float64
	for k := first; k <= last; k++ {
		t := tickTime(k)
		for i < len(pts) && t.After(pts[i].At) {
			i++
			segSet = false
		}
		if i >= len(pts) {
			// Unreachable while last ≤ the forecast's end tick; kept as
			// a safe clamp.
			dst = append(dst, pts[len(pts)-1].Pos)
			continue
		}
		if !segSet {
			segSet = true
			span = pts[i].At.Sub(pts[i-1].At).Seconds()
			if span > 0 {
				dSeg = geo.Haversine(pts[i-1].Pos, pts[i].Pos)
				brSeg = geo.InitialBearing(pts[i-1].Pos, pts[i].Pos)
			}
		}
		if span <= 0 {
			dst = append(dst, pts[i].Pos)
			continue
		}
		if dSeg == 0 {
			// geo.Interpolate's zero-distance branch.
			dst = append(dst, pts[i-1].Pos)
			continue
		}
		fr := t.Sub(pts[i-1].At).Seconds() / span
		dst = append(dst, geo.Destination(pts[i-1].Pos, brSeg, dSeg*fr))
	}
	return dst
}

// probePairs runs the incoming forecast against every candidate slot in
// the bins its expanded bounding circle touches and every wide slot,
// emitting events into d.out. A wide forecast, or one whose probe
// rectangle is too wide, is run against every live slot instead.
func (d *GridDetector) probePairs(si int32, f Forecast, now time.Time, nowNs int64) {
	a := &d.slots[si]
	d.probeSeq++

	bx0, bx1, by0, by1 := d.binRect(a.centroid, a.radius+d.pruneMargin)
	if a.wide || tooWide(bx0, bx1, by0, by1, 128) {
		for ci := range d.slots {
			if d.slots[ci].live {
				d.checkCandidate(a, &d.slots[ci], f, now, nowNs)
			}
		}
		return
	}
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, ci := range d.bins[makeBinKey(bx, by)] {
				d.checkCandidate(a, &d.slots[ci], f, now, nowNs)
			}
		}
	}
	for _, ci := range d.wide {
		d.checkCandidate(a, &d.slots[ci], f, now, nowNs)
	}
}

// checkCandidate runs the incoming forecast f (held in slot a) against
// candidate slot c once per probe, appending any event to d.out.
func (d *GridDetector) checkCandidate(a, c *collSlot, f Forecast, now time.Time, nowNs int64) {
	if c.probeSeq == d.probeSeq || c.mmsi == a.mmsi {
		return
	}
	c.probeSeq = d.probeSeq
	// The oracle evicts anything past expire before comparing; skip those
	// inline (the ring frees them shortly) so eviction timing never
	// changes events.
	if nowNs-c.stampNs > d.expireNs {
		return
	}
	d.stats.Candidates++
	// pruneMargin's slack covers FastDistance's non-metricity only over
	// the short radii of real tracks, so wide slots skip the circle
	// prune and go straight to the exact prefilter.
	if !a.wide && !c.wide && geo.FastDistance(a.centroid, c.centroid) > a.radius+c.radius+d.pruneMargin {
		return
	}
	// Ownership: when both delivery sets are known, every cell they
	// share received both forecasts, and only the smallest sweeps the
	// pair (see ownerCell).
	if d.cell != 0 && len(a.cells) > 0 && len(c.cells) > 0 && ownerCell(a.cells, c.cells) != d.cell {
		d.stats.Deferred++
		return
	}
	// The oracle's exact prefilter.
	if !rawPrefilter(f.Points, c.raw, d.cfg) {
		return
	}
	d.stats.Checked++
	if e, ok := d.sweepPair(a, c); ok {
		e.DetectedAt = now
		d.stats.Emitted++
		d.out = append(d.out, e)
	}
}

// sweepPair is the precomputed-track pair check: for each of A's ticks
// it measures the distance to B's samples inside the ±TemporalThreshold
// window with the batch kernel and keeps the closest approach. It
// reproduces CheckPair's tick/slide iteration order and strict-less
// best update exactly, so the winning (distance, time, position) are
// bitwise those of the oracle.
//
// A's ticks are walked in blocks of sweepBlockTicks. A block is skipped
// outright when the lower bound on FastDistance between its box and the
// merged boxes of B's samples its ticks slide over is already >= the
// best distance so far: every distance in the block is then >= the
// best, which only ever falls, so the strict-less loop would `continue`
// on each one anyway. The midpoint of the winning pair is computed once,
// after the sweep, rather than on every improvement.
func (d *GridDetector) sweepPair(a, b *collSlot) (Event, bool) {
	if a.lastTick < a.firstTick || b.lastTick < b.firstTick {
		return Event{}, false
	}
	bestMeters := d.cfg.SpatialThresholdMeters
	var bestK, bestKB int64 // A's and B's tick of the closest approach
	found := false
	m := d.slideTicks
	for k0 := a.firstTick; k0 <= a.lastTick; k0 += sweepBlockTicks {
		k1 := min(k0+sweepBlockTicks-1, a.lastTick)
		// B's ticks any tick of this block slides over.
		wlo, whi := max(k0-m, b.firstTick), min(k1+m, b.lastTick)
		if wlo > whi {
			continue
		}
		bb := b.boxes[(wlo-b.firstTick)/sweepBlockTicks]
		for i := (wlo-b.firstTick)/sweepBlockTicks + 1; i <= (whi-b.firstTick)/sweepBlockTicks; i++ {
			bb = bb.union(b.boxes[i])
		}
		if a.boxes[(k0-a.firstTick)/sweepBlockTicks].minFastDistance(bb) >= bestMeters {
			continue
		}
		for k := k0; k <= k1; k++ {
			pa := a.samples[k-a.firstTick]
			lo, hi := max(k-m, b.firstTick), min(k+m, b.lastTick)
			if lo > hi {
				continue
			}
			window := b.samples[lo-b.firstTick : hi-b.firstTick+1]
			if cap(d.distScratch) < len(window) {
				d.distScratch = make([]float64, len(window))
			}
			scratch := d.distScratch[:len(window)]
			geo.FastDistancesInto(scratch, pa, window)
			for j, dist := range scratch {
				if dist >= bestMeters {
					continue
				}
				bestMeters, bestK, bestKB = dist, k, lo+int64(j)
				found = true
			}
		}
	}
	if !found {
		return Event{}, false
	}
	return Event{
		Kind:   KindCollisionForecast,
		A:      a.mmsi,
		B:      b.mmsi,
		At:     tickTime(bestK).Add(time.Duration((bestKB-bestK)*checkStepNanos) / 2),
		Pos:    geo.Midpoint(a.samples[bestK-a.firstTick], b.samples[bestKB-b.firstTick]),
		Meters: bestMeters,
	}, true
}

// evictStale pops expired ring records. Refreshing a forecast frees the
// old slot and allocates a fresh one (bumping the generation), so stale
// records are simply skipped — no re-arming needed.
func (d *GridDetector) evictStale(nowNs int64) {
	for d.ring.n > 0 {
		rec := d.ring.peek()
		if nowNs-rec.atNs <= d.expireNs {
			break
		}
		d.ring.pop()
		s := &d.slots[rec.slot]
		if !s.live || s.gen != rec.gen || s.stampNs != rec.atNs {
			continue
		}
		d.freeSlot(rec.slot)
		d.stats.Evicted++
	}
}

func (d *GridDetector) allocSlot() int32 {
	if n := len(d.free); n > 0 {
		si := d.free[n-1]
		d.free = d.free[:n-1]
		return si
	}
	d.slots = append(d.slots, collSlot{})
	return int32(len(d.slots) - 1)
}

// freeSlot unregisters the slot and recycles it, keeping its slice
// arenas' capacity for the next occupant.
func (d *GridDetector) freeSlot(si int32) {
	s := &d.slots[si]
	d.unregisterSlot(si)
	delete(d.index, s.mmsi)
	s.live = false
	s.gen++
	d.free = append(d.free, si)
}

// registerSlot adds the slot to every bin its registration rectangle
// covers, recording its index within each bin for O(1) removal, or to
// the wide list.
func (d *GridDetector) registerSlot(si int32) {
	s := &d.slots[si]
	if s.wide {
		d.wide = append(d.wide, si)
		return
	}
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			k := makeBinKey(bx, by)
			ids := d.bins[k]
			s.binPos = append(s.binPos, int32(len(ids)))
			d.bins[k] = append(ids, si)
		}
	}
}

// unregisterSlot swap-removes the slot from each of its bins, fixing up
// the moved slot's recorded index via its rectangle arithmetic.
func (d *GridDetector) unregisterSlot(si int32) {
	s := &d.slots[si]
	if s.wide {
		s.wide = false
		for i, wi := range d.wide {
			if wi == si {
				last := len(d.wide) - 1
				d.wide[i] = d.wide[last]
				d.wide = d.wide[:last]
				break
			}
		}
		return
	}
	if s.bx0 > s.bx1 {
		return
	}
	pos := 0
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			k := makeBinKey(bx, by)
			ids := d.bins[k]
			i := s.binPos[pos]
			last := len(ids) - 1
			moved := ids[last]
			ids[i] = moved
			if moved != si {
				m := &d.slots[moved]
				w := m.bx1 - m.bx0 + 1
				m.binPos[(by-m.by0)*w+(bx-m.bx0)] = i
			}
			ids = ids[:last]
			if len(ids) == 0 {
				delete(d.bins, k)
			} else {
				d.bins[k] = ids
			}
			pos++
		}
	}
	s.bx0, s.bx1, s.by0, s.by1 = 0, -1, 0, -1
	s.binPos = s.binPos[:0]
}

// Size returns the number of live forecasts held.
func (d *GridDetector) Size() int { return len(d.index) }

// Stats returns the cumulative hot-path counters.
func (d *GridDetector) Stats() DetectorStats { return d.stats }
