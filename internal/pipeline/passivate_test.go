package pipeline

import (
	"testing"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/geo"
)

func TestSpatialActorsPassivateWhenIdle(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.cellIdle = 150 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	feedTrack(p, 920000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 5, 30*time.Second, t0)
	p.Drain(5 * time.Second)

	peak := p.System().LiveActors()
	if peak < 10 {
		t.Fatalf("expected cell/collision actors to spawn, live=%d", peak)
	}
	// After the idle window the spatial actors stop; the vessel actor
	// and writer remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := p.System().LiveActors()
		if live <= 3 { // vessel + writer (+ slack for a late future actor)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("actors did not passivate: %d live (peak %d)", live, peak)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Fresh traffic resurrects the cells and detection still works.
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	later := t0.Add(time.Hour)
	feedTrack(p, 920000002, base, 0, 8, 2, 30*time.Second, later)
	feedTrack(p, 920000003, geo.Destination(base, 90, 200), 0, 8, 2, 30*time.Second, later.Add(3*time.Second))
	p.Drain(5 * time.Second)
	if len(p.EventLog().ByKind(events.KindProximity)) == 0 {
		t.Fatal("proximity detection broken after passivation cycle")
	}
}
