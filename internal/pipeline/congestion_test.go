package pipeline

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

func TestPortCongestionThroughPipeline(t *testing.T) {
	port := congestion.Port{
		Name: "Piraeus", Pos: geo.Point{Lat: 37.925, Lon: 23.600},
		Radius: 5000, Capacity: 2,
	}
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Ports = []congestion.Port{port}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// Two vessels inside the approach area, two more inbound at 12 kn
	// from ~20 minutes out.
	inA := geo.Destination(port.Pos, 90, 1500)
	inB := geo.Destination(port.Pos, 180, 2500)
	feedTrack(p, 801000001, inA, 0, 0.1, 3, 30*time.Second, t0)
	feedTrack(p, 801000002, inB, 0, 0.1, 3, 30*time.Second, t0)
	for i, bearing := range []float64{45.0, 315.0} {
		dist := 12*geo.KnotsToMetersPerSecond*20*60 + port.Radius
		start := geo.Destination(port.Pos, bearing, dist)
		inbound := geo.InitialBearing(start, port.Pos)
		feedTrack(p, ais.MMSI(801000003+i), start, inbound, 12, 3, 30*time.Second, t0)
	}
	p.Drain(5 * time.Second)

	mon := p.Congestion()
	if mon == nil {
		t.Fatal("monitor not enabled")
	}
	snap := mon.Snapshot(time.Time{})
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d ports", len(snap))
	}
	st := snap[0]
	if st.Present != 2 {
		t.Fatalf("present %d, want 2", st.Present)
	}
	if st.Arriving != 2 {
		t.Fatalf("arriving %d, want 2", st.Arriving)
	}
	if !st.Congested() {
		t.Fatal("4 predicted vessels over capacity 2 must flag congestion")
	}

	// And over the API, which serves the rollup of the last refresh.
	p.views.Refresh()
	api := NewAPI(p)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/congestion", nil))
	if rec.Code != 200 {
		t.Fatalf("api status %d", rec.Code)
	}
	var docs []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0]["congested"] != true {
		t.Fatalf("api docs: %v", docs)
	}
}

func TestCongestionAPIWithoutPorts(t *testing.T) {
	p := newTestPipeline(t)
	api := NewAPI(p)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/congestion", nil))
	if rec.Code != 404 {
		t.Fatalf("unconfigured monitoring must 404, got %d", rec.Code)
	}
}
