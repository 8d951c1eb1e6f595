package congestion

import (
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

var (
	t0      = time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	piraeus = Port{Name: "Piraeus", Pos: geo.Point{Lat: 37.925, Lon: 23.600}, Radius: 5000, Capacity: 3}
	syros   = Port{Name: "Syros", Pos: geo.Point{Lat: 37.430, Lon: 24.930}, Radius: 4000, Capacity: 2}
)

func approaching(mmsi ais.MMSI, port Port, minutesOut float64, sog float64) events.Forecast {
	// Build a forecast heading straight for the port, entering the
	// radius after ~minutesOut.
	dist := sog*geo.KnotsToMetersPerSecond*minutesOut*60 + port.Radius
	bearingIn := 135.0
	start := geo.Destination(port.Pos, bearingIn+180, dist)
	f := events.Forecast{MMSI: mmsi}
	for h := 0; h <= 6; h++ {
		dt := time.Duration(h) * 5 * time.Minute
		f.Points = append(f.Points, events.ForecastPoint{
			Pos: geo.DeadReckon(start, sog, bearingIn, dt.Seconds()),
			At:  t0.Add(dt),
		})
	}
	return f
}

func TestPresentOccupancy(t *testing.T) {
	m := NewMonitor([]Port{piraeus, syros}, 0)
	m.ObservePosition(1, geo.Destination(piraeus.Pos, 90, 1000), t0)
	m.ObservePosition(2, geo.Destination(piraeus.Pos, 180, 3000), t0)
	m.ObservePosition(3, geo.Destination(syros.Pos, 0, 2000), t0)
	m.ObservePosition(4, geo.Destination(piraeus.Pos, 90, 50000), t0) // far away

	snap := m.Snapshot(t0)
	byName := map[string]Status{}
	for _, s := range snap {
		byName[s.Port.Name] = s
	}
	if byName["Piraeus"].Present != 2 {
		t.Fatalf("piraeus present %d", byName["Piraeus"].Present)
	}
	if byName["Syros"].Present != 1 {
		t.Fatalf("syros present %d", byName["Syros"].Present)
	}
}

func TestDepartureClearsOccupancy(t *testing.T) {
	m := NewMonitor([]Port{piraeus}, 0)
	m.ObservePosition(1, geo.Destination(piraeus.Pos, 90, 1000), t0)
	if m.Snapshot(t0)[0].Present != 1 {
		t.Fatal("not present after entering")
	}
	m.ObservePosition(1, geo.Destination(piraeus.Pos, 90, 20000), t0.Add(10*time.Minute))
	if m.Snapshot(t0.Add(10 * time.Minute))[0].Present != 0 {
		t.Fatal("still present after leaving")
	}
}

func TestStaleOccupancyExpires(t *testing.T) {
	m := NewMonitor([]Port{piraeus}, 10*time.Minute)
	m.ObservePosition(1, geo.Destination(piraeus.Pos, 90, 1000), t0)
	if m.Snapshot(t0.Add(5 * time.Minute))[0].Present != 1 {
		t.Fatal("expired too early")
	}
	if m.Snapshot(t0.Add(20 * time.Minute))[0].Present != 0 {
		t.Fatal("silent vessel never expired")
	}
}

func TestPredictedArrivals(t *testing.T) {
	m := NewMonitor([]Port{piraeus}, 0)
	m.ObserveForecast(approaching(10, piraeus, 12, 14))
	m.ObserveForecast(approaching(11, piraeus, 20, 12))
	// A vessel heading elsewhere.
	away := approaching(12, syros, 10, 12)
	m.ObserveForecast(away)

	st := m.Snapshot(t0)[0]
	if st.Arriving != 2 {
		t.Fatalf("arriving %d, want 2", st.Arriving)
	}
	if st.PeakPredicted != 2 {
		t.Fatalf("peak %d", st.PeakPredicted)
	}
}

func TestPresentVesselNotDoubleCounted(t *testing.T) {
	m := NewMonitor([]Port{piraeus}, 0)
	inPort := geo.Destination(piraeus.Pos, 90, 1000)
	m.ObservePosition(5, inPort, t0)
	// Its own forecast stays in the radius.
	f := events.Forecast{MMSI: 5}
	for h := 0; h <= 6; h++ {
		f.Points = append(f.Points, events.ForecastPoint{
			Pos: inPort, At: t0.Add(time.Duration(h) * 5 * time.Minute),
		})
	}
	m.ObserveForecast(f)
	st := m.Snapshot(t0)[0]
	if st.Present != 1 || st.Arriving != 0 || st.PeakPredicted != 1 {
		t.Fatalf("double counted: %+v", st)
	}
}

func TestCongestionFlag(t *testing.T) {
	m := NewMonitor([]Port{syros}, 0) // capacity 2
	m.ObservePosition(1, geo.Destination(syros.Pos, 10, 500), t0)
	m.ObservePosition(2, geo.Destination(syros.Pos, 80, 900), t0)
	if st := m.Snapshot(t0)[0]; st.Congested() {
		t.Fatalf("at capacity is not congested: %+v", st)
	}
	m.ObserveForecast(approaching(3, syros, 15, 10))
	st := m.Snapshot(t0)[0]
	if !st.Congested() || st.Port.Name != "Syros" {
		t.Fatalf("congestion not flagged: %+v", st)
	}
	if st.PeakPredicted != 3 {
		t.Fatalf("peak %d", st.PeakPredicted)
	}
}

func TestSnapshotSortedByPressure(t *testing.T) {
	m := NewMonitor([]Port{piraeus, syros}, 0)
	m.ObservePosition(1, geo.Destination(syros.Pos, 10, 500), t0)
	m.ObservePosition(2, geo.Destination(syros.Pos, 80, 900), t0)
	m.ObservePosition(3, geo.Destination(piraeus.Pos, 80, 900), t0)
	snap := m.Snapshot(t0)
	if snap[0].Port.Name != "Syros" {
		t.Fatalf("snapshot not sorted by pressure: %v", snap)
	}
}

func BenchmarkObservePosition(b *testing.B) {
	ports := []Port{piraeus, syros}
	m := NewMonitor(ports, 0)
	pos := geo.Destination(piraeus.Pos, 90, 1000)
	for i := 0; i < b.N; i++ {
		m.ObservePosition(ais.MMSI(i%1000+1), pos, t0)
	}
}
