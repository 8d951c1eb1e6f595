package events

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// The grid detectors are fast paths, not approximations: on identical
// input streams they must emit the identical event set as the map-scan
// oracles in oracle_test.go — same pairs, same timestamps, distances and positions within
// 1e-9 (in practice bitwise), same cooldown suppression. These tests
// drive both side by side and compare per update.

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		return a.Meters < b.Meters
	})
}

func compareEventSets(t *testing.T, label string, scan, grid []Event) {
	t.Helper()
	if len(scan) != len(grid) {
		t.Fatalf("%s: oracle emitted %d events, grid %d\noracle: %v\ngrid:   %v",
			label, len(scan), len(grid), scan, grid)
	}
	sortEvents(scan)
	sortEvents(grid)
	for i := range scan {
		a, b := scan[i], grid[i]
		if a.Kind != b.Kind || a.A != b.A || a.B != b.B ||
			!a.At.Equal(b.At) || !a.DetectedAt.Equal(b.DetectedAt) {
			t.Fatalf("%s: event %d differs\noracle: %+v\ngrid:   %+v", label, i, a, b)
		}
		if math.Abs(a.Meters-b.Meters) > 1e-9 ||
			math.Abs(a.Pos.Lat-b.Pos.Lat) > 1e-9 || math.Abs(a.Pos.Lon-b.Pos.Lon) > 1e-9 {
			t.Fatalf("%s: event %d numeric mismatch\noracle: %+v\ngrid:   %+v", label, i, a, b)
		}
	}
}

// runProximityParity replays a fleetsim world through per-cell oracle
// and grid detectors (sharded by res-9 hexgrid cell exactly like the
// pipeline's cell actors) and returns the number of events both sides
// agreed on.
func runProximityParity(t *testing.T, w *fleetsim.World, d time.Duration) int {
	t.Helper()
	cfg := DefaultProximityConfig()
	oracles := map[hexgrid.Cell]*ProximityDetector{}
	grids := map[hexgrid.Cell]*GridProximityDetector{}
	events := 0
	w.Run(d, func(r fleetsim.Report) {
		pos := geo.Point{Lat: r.Pos.Lat, Lon: r.Pos.Lon}
		cell := hexgrid.LatLonToCell(pos, 9)
		o := oracles[cell]
		if o == nil {
			o = NewProximityDetector(cfg)
			oracles[cell] = o
		}
		g := grids[cell]
		if g == nil {
			g = NewGridProximityDetector(cfg)
			grids[cell] = g
		}
		sc := append([]Event(nil), o.Update(r.Pos.MMSI, pos, r.At)...)
		gr := append([]Event(nil), g.Update(r.Pos.MMSI, pos, r.At)...)
		compareEventSets(t, "proximity", sc, gr)
		events += len(sc)
	})
	for cell, o := range oracles {
		if g := grids[cell]; o.Size() != g.Size() {
			t.Fatalf("cell %v: oracle tracks %d vessels, grid %d", cell, o.Size(), g.Size())
		}
	}
	return events
}

func TestGridProximityParityDenseStrait(t *testing.T) {
	w := fleetsim.DenseStraitWorld(150, 7)
	events := runProximityParity(t, w, 6*time.Minute)
	if events == 0 {
		t.Fatal("dense strait produced no proximity events; parity run is vacuous")
	}
}

func TestGridProximityParitySparseAegean(t *testing.T) {
	w := fleetsim.NewWorld(fleetsim.Config{
		Vessels: 50, Seed: 11, Region: geo.AegeanSea, KeepSailing: true,
	})
	runProximityParity(t, w, 10*time.Minute)
}

// collisionFleet is a deterministic set of crossing straight-line
// tracks. Forecasts default to the 3-point kinematic shape (now,
// +2 min, +4 min) so oracle pair checks stay affordable under -race;
// withSVRFShape switches to the 7-point, 30-minute shape production
// uses.
type collisionFleet struct {
	mmsi []ais.MMSI
	pos  []geo.Point
	cog  []float64
	sog  []float64

	points int
	step   time.Duration
}

func newCollisionFleet(n int, radiusMeters float64, seed int64) *collisionFleet {
	return newCollisionFleetAt(geo.Point{Lat: 1.2, Lon: 103.8}, n, radiusMeters, seed)
}

func newCollisionFleetAt(center geo.Point, n int, radiusMeters float64, seed int64) *collisionFleet {
	rng := rand.New(rand.NewSource(seed))
	f := &collisionFleet{
		mmsi:   make([]ais.MMSI, n),
		pos:    make([]geo.Point, n),
		cog:    make([]float64, n),
		sog:    make([]float64, n),
		points: 3,
		step:   2 * time.Minute,
	}
	for i := 0; i < n; i++ {
		f.mmsi[i] = ais.MMSI(200000000 + i)
		f.pos[i] = geo.Destination(center, rng.Float64()*360, rng.Float64()*radiusMeters)
		f.cog[i] = rng.Float64() * 360
		f.sog[i] = 8 + rng.Float64()*10
	}
	return f
}

// withSVRFShape switches the fleet to the S-VRF forecast shape: the
// present position plus six 5-minute predictions, 121 sweep ticks.
func (f *collisionFleet) withSVRFShape() *collisionFleet {
	f.points, f.step = 7, 5*time.Minute
	return f
}

func (f *collisionFleet) forecast(i int, now time.Time) Forecast {
	pts := make([]ForecastPoint, f.points)
	pts[0] = ForecastPoint{Pos: f.pos[i], At: now}
	for j := 1; j < f.points; j++ {
		dt := time.Duration(j) * f.step
		pts[j] = ForecastPoint{Pos: geo.DeadReckon(f.pos[i], f.sog[i], f.cog[i], dt.Seconds()), At: now.Add(dt)}
	}
	return Forecast{MMSI: f.mmsi[i], Points: pts}
}

func (f *collisionFleet) advance(i int, dtSeconds float64) {
	f.pos[i] = geo.DeadReckon(f.pos[i], f.sog[i], f.cog[i], dtSeconds)
}

func runCollisionParity(t *testing.T, cfg CollisionConfig, fleet *collisionFleet, steps int) int {
	t.Helper()
	oracle := NewDetector(cfg, 10*time.Minute)
	grid := NewGridDetector(cfg, 10*time.Minute)
	events := 0
	for step := 0; step < steps; step++ {
		now := t0.Add(time.Duration(step) * 30 * time.Second)
		for i := range fleet.mmsi {
			fleet.advance(i, 30)
			f := fleet.forecast(i, now)
			sc := append([]Event(nil), oracle.Update(f, now)...)
			gr := append([]Event(nil), grid.Update(f, now)...)
			compareEventSets(t, "collision", sc, gr)
			events += len(sc)
		}
	}
	if oracle.Size() != grid.Size() {
		t.Fatalf("oracle tracks %d forecasts, grid %d", oracle.Size(), grid.Size())
	}
	return events
}

func TestGridCollisionParityDense(t *testing.T) {
	fleet := newCollisionFleet(16, 3000, 42)
	events := runCollisionParity(t, DefaultCollisionConfig(), fleet, 6)
	if events == 0 {
		t.Fatal("dense fleet produced no collision events; parity run is vacuous")
	}
}

func TestGridCollisionParitySparse(t *testing.T) {
	// Vessels ~80 km apart: the circle prune must reject everything and
	// the oracle must agree that nothing pairs.
	fleet := newCollisionFleet(20, 400000, 9)
	events := runCollisionParity(t, DefaultCollisionConfig(), fleet, 4)
	if events != 0 {
		t.Fatalf("sparse fleet unexpectedly produced %d events", events)
	}
}

// The 3-point fleets above make at most two sweep blocks per track; the
// block-bound pruning only earns its keep (and can only go wrong) on
// the 121-tick S-VRF shape. These runs replay it where the bound's
// terms are extreme: a dense fleet, high latitude (small cos), and raw
// longitudes on both sides of ±180, where FastDistance does not wrap
// and the tracks that cross the line become wide slots (see tooWide).
func TestGridCollisionParitySVRFShape(t *testing.T) {
	cases := []struct {
		name   string
		center geo.Point
		seed   int64
	}{
		{"dense", geo.Point{Lat: 1.2, Lon: 103.8}, 42},
		{"70N", geo.Point{Lat: 70.2, Lon: 20.5}, 7},
		{"antimeridian", geo.Point{Lat: -16.5, Lon: -180}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fleet := newCollisionFleetAt(c.center, 12, 3000, c.seed).withSVRFShape()
			events := runCollisionParity(t, DefaultCollisionConfig(), fleet, 4)
			if events == 0 {
				t.Fatal("fleet produced no collision events; parity run is vacuous")
			}
		})
	}
}

// The block bound must never exceed the FastDistance of any pair of
// points inside its two boxes — that is all sweepPair's skip relies on.
// Boxes range from metres to 100 km, up to |lat| 89.9 and across the
// whole raw longitude range, near each other or anywhere; corners are
// always among the points since that is where the bound is tight.
func TestBlockBoxBoundBelowFastDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	randBox := func(near *blockBox) blockBox {
		size := math.Pow(10, rng.Float64()*5) / perLatMeters // 1 m .. 100 km
		latSpan, lonSpan := rng.Float64()*size, rng.Float64()*size*20
		lat := (rng.Float64()*2-1)*89.9 - latSpan/2
		lon := (rng.Float64()*2-1)*180 - lonSpan/2
		if near != nil {
			lat = near.minLat + (rng.Float64()*2-1)*3*size
			lon = near.minLon + (rng.Float64()*2-1)*3*size
		}
		lat = math.Max(-89.9, math.Min(89.9-latSpan, lat))
		lon = math.Max(-180, math.Min(math.Nextafter(180, 0)-lonSpan, lon))
		return blockBox{minLat: lat, maxLat: lat + latSpan, minLon: lon, maxLon: lon + lonSpan}
	}
	points := func(b blockBox) []geo.Point {
		pts := []geo.Point{
			{Lat: b.minLat, Lon: b.minLon}, {Lat: b.minLat, Lon: b.maxLon},
			{Lat: b.maxLat, Lon: b.minLon}, {Lat: b.maxLat, Lon: b.maxLon},
		}
		for i := 0; i < 4; i++ {
			pts = append(pts, geo.Point{
				Lat: b.minLat + rng.Float64()*(b.maxLat-b.minLat),
				Lon: b.minLon + rng.Float64()*(b.maxLon-b.minLon),
			})
		}
		return pts
	}
	dists := make([]float64, 8)
	positive := 0
	for trial := 0; trial < 20000; trial++ {
		a := randBox(nil)
		var b blockBox
		switch trial % 4 {
		case 0:
			b = randBox(nil)
		case 1: // the other side of the antimeridian
			a.minLon, a.maxLon = 180-(a.maxLon-a.minLon)-1e-7, 180-1e-7
			b = randBox(&blockBox{minLat: a.minLat, minLon: -180})
		default:
			b = randBox(&a)
		}
		bound := a.minFastDistance(b)
		if bound > 0 {
			positive++
		}
		if rev := b.minFastDistance(a); rev != bound {
			t.Fatalf("bound not symmetric: %v vs %v for %+v, %+v", bound, rev, a, b)
		}
		qs := points(b)
		for _, p := range points(a) {
			geo.FastDistancesInto(dists, p, qs)
			for j, q := range qs {
				if d := geo.FastDistance(q, p); bound > d || bound > dists[j] {
					t.Fatalf("bound %v exceeds FastDistance %v / %v\nbox A %+v p %v\nbox B %+v q %v",
						bound, d, dists[j], a, p, b, q)
				}
			}
		}
	}
	if positive < 20000/4 {
		t.Fatalf("only %d of 20000 bounds are positive; the test is vacuous", positive)
	}
}

// Two vessels converging over the whole 30-minute horizon: the best
// approach improves tick after tick, across blocks, so the deferred
// Midpoint must be taken on the final winner, not an intermediate one.
// The event must equal the oracle's bitwise.
func TestGridCollisionDeferredMidpoint(t *testing.T) {
	start := geo.Point{Lat: 35.9, Lon: 14.5}
	mk := func(mmsi ais.MMSI, pos geo.Point, cog float64) Forecast {
		pts := make([]ForecastPoint, 7)
		for j := range pts {
			dt := time.Duration(j) * 5 * time.Minute
			pts[j] = ForecastPoint{Pos: geo.DeadReckon(pos, 12, cog, dt.Seconds()), At: t0.Add(dt)}
		}
		return Forecast{MMSI: mmsi, Points: pts}
	}
	// B starts 1.5 km abeam and closes at 7° off parallel, reaching its
	// closest approach only at the end of the horizon.
	fa := mk(300000001, start, 90)
	fb := mk(300000002, geo.Destination(start, 0, 1500), 97)
	want, ok := CheckPair(fb, fa, DefaultCollisionConfig())
	if !ok {
		t.Fatal("oracle found no encounter; scenario is vacuous")
	}
	if d0 := geo.FastDistance(fa.Points[0].Pos, fb.Points[0].Pos); d0 >= DefaultCollisionConfig().SpatialThresholdMeters || want.Meters > d0/4 {
		t.Fatalf("want a best that starts below threshold (%.0f m) and keeps improving; oracle best %.0f m", d0, want.Meters)
	}
	if want.At.Before(t0.Add(sweepBlockTicks * 2 * checkStep)) {
		t.Fatalf("closest approach at %v lies in the first blocks; scenario does not cross blocks", want.At)
	}

	g := NewGridDetector(DefaultCollisionConfig(), 0)
	g.Update(fa, t0)
	got := g.Update(fb, t0)
	if len(got) != 1 {
		t.Fatalf("grid emitted %d events, want 1", len(got))
	}
	want.DetectedAt = t0
	if got[0] != want {
		t.Fatalf("grid event differs from oracle\noracle: %+v\ngrid:   %+v", want, got[0])
	}
}

// Satellite regression: the oracle's cooldown map grows without bound
// (one entry per pair ever seen). The grid detector's time-bucketed
// expiry must keep both the cooldown map and the tracked-vessel arena
// bounded by the *active* population under pair churn.
func TestGridProximityCooldownBoundedUnderChurn(t *testing.T) {
	cfg := ProximityConfig{ThresholdMeters: 500, TimeWindow: time.Minute, Cooldown: 30 * time.Second}
	g := NewGridProximityDetector(cfg)
	base := geo.Point{Lat: 1.2, Lon: 103.5}
	emitted := 0
	const pairs = 5000
	for i := 0; i < pairs; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		// A fresh pair each second, 0.05° (~5.6 km) from its neighbours
		// so pairs never cross-trigger; positions recycle every 400 s,
		// long after both the cooldown and the staleness horizon.
		pos := geo.Point{Lat: base.Lat, Lon: base.Lon + float64(i%400)*0.05}
		a := ais.MMSI(300000000 + 2*i)
		b := ais.MMSI(300000000 + 2*i + 1)
		g.Update(a, pos, at)
		emitted += len(g.Update(b, pos, at))
	}
	if emitted != pairs {
		t.Fatalf("churn emitted %d events, want one per pair (%d)", emitted, pairs)
	}
	// Live cooldown entries: only pairs within one Cooldown plus one
	// expiry bucket (~38 s) of the end. The oracle would hold all 5000.
	if cs := len(g.cooldown); cs > 200 {
		t.Fatalf("cooldown map not bounded under churn: %d live entries", cs)
	}
	// Tracked vessels: only those within the 2×TimeWindow staleness
	// horizon (~240 of 10000 seen).
	if sz := g.Size(); sz > 400 {
		t.Fatalf("vessel arena not bounded under churn: %d live slots", sz)
	}
}

// Satellite regression: a full cell's update cost must not scale with
// the number of expired entries. After a mass expiry, the eviction ring
// must be fully drained (one amortized pass) and subsequent updates
// must inspect zero dead candidates.
func TestGridCollisionExpiryCostIndependentOfDeadEntries(t *testing.T) {
	d := NewGridDetector(DefaultCollisionConfig(), 10*time.Minute)
	mk := func(mmsi int, pos geo.Point, now time.Time) Forecast {
		return Forecast{MMSI: ais.MMSI(mmsi), Points: []ForecastPoint{
			{Pos: pos, At: now},
			{Pos: geo.DeadReckon(pos, 12, 45, 120), At: now.Add(2 * time.Minute)},
			{Pos: geo.DeadReckon(pos, 12, 45, 240), At: now.Add(4 * time.Minute)},
		}}
	}
	// 3000 forecasts on a ~77 km grid: far enough apart that no probe
	// ever finds a candidate, so they are pure dead weight once stale.
	const dead = 3000
	for i := 0; i < dead; i++ {
		pos := geo.Point{Lat: 10 + float64(i/100)*0.7, Lon: -170 + float64(i%100)*0.7}
		d.Update(mk(600000000+i, pos, t0), t0)
	}
	if d.Stats().Candidates != 0 {
		t.Fatalf("spread-out prepopulation should probe no candidates, got %d", d.Stats().Candidates)
	}
	preEvicted := d.Stats().Evicted
	now := t0.Add(11 * time.Minute)
	d.Update(mk(700000000, geo.Point{Lat: 50, Lon: 10}, now), now)
	if got := d.Stats().Evicted - preEvicted; got != dead {
		t.Fatalf("amortized drain evicted %d entries, want %d", got, dead)
	}
	if d.ring.n != 1 { // only the fresh vessel's own record remains
		t.Fatalf("eviction ring holds %d records after drain, want 1", d.ring.n)
	}
	if d.Size() != 1 {
		t.Fatalf("detector tracks %d forecasts after expiry, want 1", d.Size())
	}
	// Post-expiry updates (again spread out) must do zero dead work.
	preCand := d.Stats().Candidates
	for i := 0; i < 50; i++ {
		pos := geo.Point{Lat: 50 + float64(i+1)*0.7, Lon: 10}
		now = now.Add(time.Second)
		d.Update(mk(700000001+i, pos, now), now)
	}
	if got := d.Stats().Candidates - preCand; got != 0 {
		t.Fatalf("updates after mass expiry inspected %d candidates, want 0", got)
	}
}
