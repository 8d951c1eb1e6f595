package pipeline

import (
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// faultyForecaster panics on every n-th call — a stand-in for a model
// bug or corrupted input that must not take the vessel actor (or the
// pipeline) down.
type faultyForecaster struct {
	inner events.TrackForecaster
	n     int64
	count int64
}

func (f *faultyForecaster) Name() string { return "faulty" }

func (f *faultyForecaster) ForecastTrack(history []ais.PositionReport) (events.Forecast, bool) {
	if atomic.AddInt64(&f.count, 1)%f.n == 0 {
		panic("model exploded")
	}
	return f.inner.ForecastTrack(history)
}

func TestVesselActorSurvivesForecasterPanic(t *testing.T) {
	cfg := DefaultConfig(&faultyForecaster{inner: events.NewKinematicForecaster(), n: 5})
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// 30 reports for one vessel: every 5th forecast panics, yet state
	// keeps flowing for the rest.
	feedTrack(p, 909000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 30, 30*time.Second, t0)
	p.Drain(5 * time.Second)

	if p.System().StatsSnapshot().Failures == 0 {
		t.Fatal("failures never counted")
	}
	h, _ := p.Store().HGetAll("vessel:909000001")
	if h["lat"] == "" {
		t.Fatal("vessel state lost after panics")
	}
	// The actor was restarted, not stopped: it still accepts traffic.
	late := t0.Add(time.Hour)
	pos := geo.DeadReckon(geo.Point{Lat: 37.5, Lon: 24.5}, 12, 90, late.Sub(t0).Seconds())
	p.Ingest(ais.PositionReport{
		MMSI: 909000001, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: 90,
		Timestamp: late,
	})
	p.Drain(3 * time.Second)
	h2, _ := p.Store().HGetAll("vessel:909000001")
	if h2["ts"] == h["ts"] {
		t.Fatal("vessel actor stopped processing after restart")
	}
	if got := p.System().StatsSnapshot().Restarts; got == 0 {
		t.Fatal("no restarts recorded")
	}
}

func TestPipelineRequiresForecaster(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil forecaster must be rejected")
	}
}

func TestDrainReturnsOnQuietSystem(t *testing.T) {
	p := newTestPipeline(t)
	feedTrack(p, 910000001, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 2, 30*time.Second, t0)
	start := time.Now()
	p.Drain(10 * time.Second)
	if time.Since(start) > 5*time.Second {
		t.Fatal("drain did not detect quiescence")
	}
}

// TestDrainIdlePipelineReturnsImmediately: a pipeline that never
// ingested anything is already drained — Drain must return at once
// instead of burning the whole timeout waiting for a processed counter
// that will never move off zero.
func TestDrainIdlePipelineReturnsImmediately(t *testing.T) {
	p := newTestPipeline(t)
	start := time.Now()
	p.Drain(10 * time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain of an idle pipeline took %v", elapsed)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	p, err := New(DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		t.Fatal(err)
	}
	p.Shutdown(time.Second)
	p.Shutdown(time.Second) // second call is a no-op
	// Ingest after shutdown is silently dropped.
	p.Ingest(ais.PositionReport{MMSI: 1, Lat: 1, Lon: 1, Timestamp: t0})
	if p.Stats().Messages != 0 {
		t.Fatal("ingest after shutdown was accepted")
	}
}
