package events

import (
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

var t0 = time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)

// lineForecast builds a straight forecast: 7 points from start along
// bearing at the given speed, 5 minutes apart.
func lineForecast(mmsi ais.MMSI, start geo.Point, bearing, sog float64, startAt time.Time) Forecast {
	f := Forecast{MMSI: mmsi}
	for h := 0; h <= 6; h++ {
		dt := time.Duration(h) * 5 * time.Minute
		f.Points = append(f.Points, ForecastPoint{
			Pos: geo.DeadReckon(start, sog, bearing, dt.Seconds()),
			At:  startAt.Add(dt),
		})
	}
	return f
}

func TestCheckPairHeadOnCollision(t *testing.T) {
	// Two vessels 6 NM apart closing head-on at 12 kn each: they meet
	// after 15 minutes.
	meet := geo.Point{Lat: 37.5, Lon: 24.5}
	a := lineForecast(1, geo.DeadReckon(meet, 12, 270, 900), 90, 12, t0)
	b := lineForecast(2, geo.DeadReckon(meet, 12, 90, 900), 270, 12, t0)
	cfg := DefaultCollisionConfig()
	e, ok := CheckPair(a, b, cfg)
	if !ok {
		t.Fatal("head-on collision not detected")
	}
	if e.Meters > 300 {
		t.Fatalf("predicted separation %.0f m", e.Meters)
	}
	wantAt := t0.Add(15 * time.Minute)
	if d := e.At.Sub(wantAt); d < -time.Minute || d > time.Minute {
		t.Fatalf("estimated time %v, want ~%v", e.At, wantAt)
	}
	if d := geo.Haversine(e.Pos, meet); d > 1000 {
		t.Fatalf("estimated position %.0f m from meeting point", d)
	}
}

func TestCheckPairCrossingWithinThreshold(t *testing.T) {
	// Crossing tracks; vessel B reaches the crossing 90 s after A —
	// inside a 2-minute temporal threshold.
	cross := geo.Point{Lat: 37.0, Lon: 25.0}
	a := lineForecast(1, geo.DeadReckon(cross, 10, 180, 600), 0, 10, t0)
	bStart := geo.DeadReckon(cross, 10, 270, 600+90)
	b := lineForecast(2, bStart, 90, 10, t0)
	e, ok := CheckPair(a, b, DefaultCollisionConfig())
	if !ok {
		t.Fatalf("crossing within temporal threshold not detected")
	}
	if e.Meters > 800 {
		t.Fatalf("separation %.0f m", e.Meters)
	}
}

func TestCheckPairCrossingOutsideThresholdRejected(t *testing.T) {
	// Same crossing geometry but B trails A by 20 minutes: even with the
	// +-2 minute clock slide the vessels are never within 1 NM of each
	// other at temporally-compatible instants, so this must NOT fire.
	cross := geo.Point{Lat: 37.0, Lon: 25.0}
	a := lineForecast(1, geo.DeadReckon(cross, 10, 180, 600), 0, 10, t0)
	bStart := geo.DeadReckon(cross, 10, 270, 600+1200)
	b := lineForecast(2, bStart, 90, 10, t0)
	if e, ok := CheckPair(a, b, DefaultCollisionConfig()); ok {
		t.Fatalf("crossing 20 minutes apart must not be a collision (sep %.0f m)", e.Meters)
	}
}

func TestCheckPairParallelFarApart(t *testing.T) {
	a := lineForecast(1, geo.Point{Lat: 37.0, Lon: 24.0}, 0, 12, t0)
	b := lineForecast(2, geo.Point{Lat: 37.0, Lon: 24.5}, 0, 12, t0) // ~44 km east
	if _, ok := CheckPair(a, b, DefaultCollisionConfig()); ok {
		t.Fatal("parallel distant tracks must not collide")
	}
}

func TestCheckPairEmptyForecast(t *testing.T) {
	a := lineForecast(1, geo.Point{Lat: 37, Lon: 24}, 0, 12, t0)
	if _, ok := CheckPair(a, Forecast{MMSI: 2}, DefaultCollisionConfig()); ok {
		t.Fatal("empty forecast must not collide")
	}
}

func TestDetectorPairwiseAndExpiry(t *testing.T) {
	meet := geo.Point{Lat: 37.5, Lon: 24.5}
	d := NewDetector(DefaultCollisionConfig(), 10*time.Minute)
	a := lineForecast(1, geo.DeadReckon(meet, 12, 270, 900), 90, 12, t0)
	b := lineForecast(2, geo.DeadReckon(meet, 12, 90, 900), 270, 12, t0)

	if evs := d.Update(a, t0); len(evs) != 0 {
		t.Fatal("first forecast has no peers")
	}
	evs := d.Update(b, t0.Add(time.Second))
	if len(evs) != 1 {
		t.Fatalf("expected one collision, got %d", len(evs))
	}
	if evs[0].PairKey() != (Event{A: 1, B: 2}).PairKey() {
		t.Fatalf("wrong pair %#x", evs[0].PairKey())
	}
	if d.Size() != 2 {
		t.Fatalf("detector holds %d forecasts", d.Size())
	}
	// Past the expiry horizon both old forecasts are evicted; only the
	// fresh vessel remains.
	late := t0.Add(30 * time.Minute)
	c := lineForecast(3, geo.Point{Lat: 39, Lon: 23}, 0, 10, late)
	d.Update(c, late)
	if d.Size() != 1 {
		t.Fatalf("stale forecasts not evicted: size %d", d.Size())
	}
}

func TestProximityDetector(t *testing.T) {
	p := NewProximityDetector(DefaultProximityConfig())
	base := geo.Point{Lat: 37.5, Lon: 24.5}

	if evs := p.Update(1, base, t0); len(evs) != 0 {
		t.Fatal("single vessel cannot be in proximity")
	}
	// Vessel 2 reports 300 m away, 20 s later: proximity.
	evs := p.Update(2, geo.Destination(base, 90, 300), t0.Add(20*time.Second))
	if len(evs) != 1 {
		t.Fatalf("expected proximity event, got %d", len(evs))
	}
	if evs[0].Meters > 500 || evs[0].Kind != KindProximity {
		t.Fatalf("event = %+v", evs[0])
	}
	// Immediate repeat is suppressed by the cooldown.
	if evs := p.Update(1, base, t0.Add(30*time.Second)); len(evs) != 0 {
		t.Fatalf("cooldown violated: %d events", len(evs))
	}
	// A distant vessel triggers nothing.
	if evs := p.Update(3, geo.Destination(base, 0, 5000), t0.Add(40*time.Second)); len(evs) != 0 {
		t.Fatal("distant vessel must not trigger proximity")
	}
}

func TestProximityTimeWindow(t *testing.T) {
	p := NewProximityDetector(ProximityConfig{
		ThresholdMeters: 500, TimeWindow: time.Minute, Cooldown: time.Hour,
	})
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	p.Update(1, base, t0)
	// Same spot but 5 minutes later: stale, not a proximity event.
	if evs := p.Update(2, base, t0.Add(5*time.Minute)); len(evs) != 0 {
		t.Fatal("reports 5 minutes apart must not pair within a 1-minute window")
	}
}

func TestSwitchOffDetector(t *testing.T) {
	s := NewSwitchOffDetector(DefaultSwitchOffConfig())
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	// Establish a 60 s cadence.
	at := t0
	for i := 0; i < 10; i++ {
		if _, fired := s.Update(9, pos, at); fired {
			t.Fatal("regular cadence must not fire")
		}
		at = at.Add(time.Minute)
	}
	// 2-hour silence: switch-off.
	at = at.Add(2 * time.Hour)
	e, fired := s.Update(9, pos, at)
	if !fired {
		t.Fatal("2-hour silence after 60 s cadence must fire")
	}
	if e.Kind != KindSwitchOff || e.A != 9 {
		t.Fatalf("event = %+v", e)
	}
	// The event is stamped at the silence start.
	if e.At.After(e.DetectedAt) || at.Sub(e.At) < 2*time.Hour {
		t.Fatalf("event timing: at=%v detected=%v", e.At, e.DetectedAt)
	}
	// Cadence survives the anomaly: another regular gap does not fire.
	if _, fired := s.Update(9, pos, at.Add(time.Minute)); fired {
		t.Fatal("regular report after anomaly must not fire")
	}
}

func TestSwitchOffNotFiredForSlowCadence(t *testing.T) {
	// A class B vessel reporting every 6 minutes must tolerate a
	// 30-minute gap (only 5x its cadence).
	s := NewSwitchOffDetector(DefaultSwitchOffConfig())
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	at := t0
	for i := 0; i < 6; i++ {
		s.Update(9, pos, at)
		at = at.Add(6 * time.Minute)
	}
	at = at.Add(31 * time.Minute)
	if _, fired := s.Update(9, pos, at); fired {
		t.Fatal("31-minute gap at 6-minute cadence must not fire (factor 20)")
	}
}

func TestEventLog(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Kind: KindProximity, A: ais.MMSI(i + 1), At: t0.Add(time.Duration(i) * time.Minute)})
	}
	if l.Total() != 10 {
		t.Fatalf("total %d", l.Total())
	}
	kept := l.ByKind(KindProximity)
	if len(kept) != 4 {
		t.Fatalf("retained %d", len(kept))
	}
	for i, e := range kept {
		if e.A != ais.MMSI(7+i) {
			t.Fatalf("retention window not oldest-first 7..10: %v", kept)
		}
	}
	l.Append(Event{Kind: KindSwitchOff, A: 99})
	if got := l.ByKind(KindSwitchOff); len(got) != 1 || got[0].A != 99 {
		t.Fatalf("by kind: %v", got)
	}
	// The switch-off evicted the oldest proximity event.
	if got := l.ByKind(KindProximity); len(got) != 3 || got[0].A != 8 || got[2].A != 10 {
		t.Fatalf("after eviction: %v", got)
	}
}

// TestEventLogAppendZeroAlloc pins the ring: appending into a full log
// overwrites in place instead of copying the retained window.
func TestEventLogAppendZeroAlloc(t *testing.T) {
	l := NewLog(1 << 14)
	e := Event{Kind: KindProximity, A: 1, B: 2, At: t0}
	for i := 0; i < 1<<14; i++ {
		l.Append(e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.Append(e) }); allocs != 0 {
		t.Fatalf("Append into a full log allocates %v times per call, want 0", allocs)
	}
}

func TestPairKeyOrderIndependent(t *testing.T) {
	a := Event{A: 5, B: 9}
	b := Event{A: 9, B: 5}
	if a.PairKey() != b.PairKey() {
		t.Fatal("pair key must be order independent")
	}
}

func TestKinematicForecasterGeometry(t *testing.T) {
	fc := NewKinematicForecaster()
	if fc.Name() == "" {
		t.Fatal("forecaster must have a name")
	}
	history := []ais.PositionReport{{
		MMSI: 7, Lat: 37.5, Lon: 24.5, SOG: 12, COG: 90, Timestamp: t0,
	}}
	f, ok := fc.ForecastTrack(history)
	if !ok || len(f.Points) != 7 {
		t.Fatalf("forecast: ok=%v points=%d", ok, len(f.Points))
	}
	if f.Points[0].At != t0 {
		t.Fatal("first point must be the present position")
	}
	// 12 kn for 30 min = 6 NM east.
	want := geo.DeadReckon(geo.Point{Lat: 37.5, Lon: 24.5}, 12, 90, 1800)
	if d := geo.Haversine(f.Points[6].Pos, want); d > 1 {
		t.Fatalf("final point off by %.1f m", d)
	}
	if _, ok := fc.ForecastTrack(nil); ok {
		t.Fatal("empty history must fail")
	}
}

func BenchmarkCheckPair(b *testing.B) {
	meet := geo.Point{Lat: 37.5, Lon: 24.5}
	a := lineForecast(1, geo.DeadReckon(meet, 12, 270, 900), 90, 12, t0)
	bb := lineForecast(2, geo.DeadReckon(meet, 12, 90, 900), 270, 12, t0)
	cfg := DefaultCollisionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CheckPair(a, bb, cfg)
	}
}

func BenchmarkCheckPairFarApart(b *testing.B) {
	a := lineForecast(1, geo.Point{Lat: 37, Lon: 24}, 0, 12, t0)
	bb := lineForecast(2, geo.Point{Lat: 40, Lon: 28}, 0, 12, t0)
	cfg := DefaultCollisionConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CheckPair(a, bb, cfg)
	}
}

func BenchmarkProximityUpdate(b *testing.B) {
	p := NewProximityDetector(DefaultProximityConfig())
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	for i := 0; i < 50; i++ {
		p.Update(ais.MMSI(i+1), geo.Destination(base, float64(i*7), float64(i)*200), t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(999, base, t0.Add(time.Duration(i)*time.Millisecond))
	}
}
