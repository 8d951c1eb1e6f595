package pipeline

import (
	"fmt"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// TestMultipleWriters exercises the §3 variant the paper mentions:
// several writer actors, each owning a subset of the outputs, all
// persisting into the same store.
func TestMultipleWriters(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Writers = 4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	const vessels = 40
	for i := 0; i < vessels; i++ {
		mmsi := ais.MMSI(930000001 + i)
		start := geo.Destination(geo.Point{Lat: 37.5, Lon: 24.5}, float64(i*9), float64(i)*3000)
		feedTrack(p, mmsi, start, float64(i*7%360), 10, 3, 30*time.Second, t0)
	}
	p.Drain(5 * time.Second)

	// Every vessel's state must land in the store regardless of which
	// writer owned it.
	for i := 0; i < vessels; i++ {
		key := fmt.Sprintf("vessel:%09d", 930000001+i)
		h, err := p.Store().HGetAll(key)
		if err != nil || h["lat"] == "" {
			t.Fatalf("vessel %d state missing (%v)", 930000001+i, err)
		}
	}
	// All four writer actors are running.
	if len(p.writers) != 4 {
		t.Fatalf("%d writers, want 4", len(p.writers))
	}
	for w, pid := range p.writers {
		if !pid.Alive() {
			t.Fatalf("writer-%d not running", w)
		}
	}
}
