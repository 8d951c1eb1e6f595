package pipeline

import (
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
)

// noForecast is the ablation forecaster of the steady-state alloc gate:
// it refuses every forecast so the measurement isolates the ingest and
// state-write path from model output size.
type noForecast struct{}

func (noForecast) Name() string { return "none" }
func (noForecast) ForecastTrack([]ais.PositionReport) (events.Forecast, bool) {
	return events.Forecast{}, false
}

// TestIngestSteadyStateAllocs gates a steady-state ingest (warm actor,
// full history window, no forecast, so proximity fan-out only) to an
// alloc budget per report, end to end through the writer's store write.
// The budget is deliberately above the measured value (~4/report) but
// far below the ~140/report the unbatched map-encoding path cost — a
// regression that reintroduces per-report key building, map documents
// or RFC3339 Format calls trips it immediately.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs quiesced runs")
	}
	cfg := DefaultConfig(noForecast{})
	cfg.CheckpointInterval = -1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	const mmsi ais.MMSI = 239000555
	// Warm up past the history limit so the window slides in place.
	feedTrack(p, mmsi, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, historyLimit+8, time.Second, t0)
	p.Drain(5 * time.Second)

	const batch = 100
	tick := 0
	base := t0.Add(24 * time.Hour)
	avg := testing.AllocsPerRun(20, func() {
		for j := 0; j < batch; j++ {
			tick++
			at := base.Add(time.Duration(tick) * time.Second)
			p.Ingest(ais.PositionReport{
				MMSI: mmsi, Lat: 37.5, Lon: 24.5, SOG: 12, COG: 90,
				Status: ais.StatusUnderWayEngine, Timestamp: at,
			})
		}
		p.Drain(5 * time.Second)
	})
	perReport := avg / batch
	t.Logf("steady-state ingest: %.2f allocs/report", perReport)
	if perReport > 16 {
		t.Errorf("steady-state ingest allocates %.2f/report, budget 16", perReport)
	}
}

// TestFieldEncoderAllocs gates the writer's state encoding: a full
// vessel document (position, status, timestamp, forecast, static info)
// must cost exactly one allocation — the single buffer-to-string
// conversion in finish.
func TestFieldEncoderAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs uninstrumented runs")
	}
	report := ais.PositionReport{
		MMSI: 239000556, Lat: 37.51234, Lon: 24.54321, SOG: 12.3, COG: 89.9,
		Status: ais.StatusUnderWayEngine, Timestamp: t0,
	}
	forecast := []events.ForecastPoint{
		{Pos: geo.Point{Lat: 37.52, Lon: 24.56}, At: t0.Add(5 * time.Minute)},
		{Pos: geo.Point{Lat: 37.53, Lon: 24.58}, At: t0.Add(10 * time.Minute)},
	}
	var enc fieldEncoder
	var fields []kvstore.Field
	avg := testing.AllocsPerRun(100, func() {
		enc.reset()
		enc.buf = append(enc.buf, '1') // non-trivial starting point
		enc.commit("pad")
		enc.buf = appendForecast(enc.buf, forecast)
		enc.commit("forecast")
		enc.direct("status", report.Status.String())
		enc.buf = report.Timestamp.UTC().AppendFormat(enc.buf, time.RFC3339)
		enc.commit("ts")
		fields = enc.finish()
	})
	t.Logf("field encoding: %.2f allocs/document", avg)
	if avg > 1 {
		t.Errorf("field encoding allocates %.2f/document, want <= 1", avg)
	}
	if len(fields) != 4 || fields[1].Name != "forecast" || fields[2].Value != report.Status.String() {
		t.Fatalf("unexpected document: %+v", fields)
	}
}

// TestWriteStateAllocs bounds the whole writeState call (encoding plus
// the two retried store writes) on a warm writer with cached keys.
func TestWriteStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs uninstrumented runs")
	}
	cfg := DefaultConfig(noForecast{})
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	w := &writerActor{p: p}
	msg := stateMsg{
		report: ais.PositionReport{
			MMSI: 239000557, Lat: 37.5, Lon: 24.5, SOG: 12, COG: 90,
			Status: ais.StatusUnderWayEngine, Timestamp: t0,
		},
		forecast: []events.ForecastPoint{
			{Pos: geo.Point{Lat: 37.52, Lon: 24.56}, At: t0.Add(5 * time.Minute)},
		},
	}
	w.writeState(msg) // warm the key cache and store entries
	avg := testing.AllocsPerRun(100, func() {
		w.writeState(msg)
	})
	t.Logf("writeState: %.2f allocs/state", avg)
	if avg > 8 {
		t.Errorf("writeState allocates %.2f/state, budget 8", avg)
	}
}
