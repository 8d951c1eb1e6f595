package pipeline

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
	"seatwin/internal/retry"
	"seatwin/internal/svrf"
)

func init() {
	// The durable broker persists record values with gob.
	broker.RegisterType(ais.PositionReport{})
}

// svrfConfig builds a pipeline whose forecaster is a real (untrained)
// S-VRF model: it refuses to forecast until a vessel's downsampled
// history reaches traj.MinLiveReports, so a forecast on the very first
// post-restart report proves the history window was restored from the
// checkpoint rather than re-warmed from live traffic.
func svrfConfig(t *testing.T, store *kvstore.Store) Config {
	t.Helper()
	m, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(events.SVRFForecaster{Model: m})
	cfg.Store = store
	cfg.CheckpointInterval = 4
	return cfg
}

// produceTrack produces n straight-track reports for one vessel onto
// the broker, 30 s apart (the S-VRF downsample interval, so every
// report survives downsampling), and returns the last timestamp.
func produceTrack(t *testing.T, br *broker.Broker, topic string, mmsi ais.MMSI, start geo.Point, n int, from time.Time) time.Time {
	t.Helper()
	var at time.Time
	for i := 0; i < n; i++ {
		at = from.Add(time.Duration(i) * 30 * time.Second)
		pos := geo.DeadReckon(start, 12, 90, at.Sub(from).Seconds())
		if _, _, err := br.Produce(topic, strconv.FormatUint(uint64(mmsi), 10), ais.PositionReport{
			MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: 90,
			Status: ais.StatusUnderWayEngine, Timestamp: at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return at
}

// warmRun is phase one of the restart tests: a pipeline consumes n
// reports from a durable broker, checkpoints, and shuts down cleanly.
// It returns the last report timestamp.
func warmRun(t *testing.T, dir string, store *kvstore.Store, topic string, mmsi ais.MMSI, start geo.Point, n int) time.Time {
	t.Helper()
	br, err := broker.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.CreateTopic(topic, 2); err != nil {
		t.Fatal(err)
	}
	p, err := New(svrfConfig(t, store))
	if err != nil {
		t.Fatal(err)
	}
	c, err := br.Subscribe(topic, "pipeline")
	if err != nil {
		t.Fatal(err)
	}
	last := produceTrack(t, br, topic, mmsi, start, n, t0)
	if got := p.ConsumeLoop(c, 400*time.Millisecond); got != n {
		t.Fatalf("warm run consumed %d records, want %d", got, n)
	}
	p.Drain(10 * time.Second)
	warm := p.Stats()
	if warm.Forecasts == 0 {
		t.Fatal("warm run never forecast — the model never crossed MinLiveReports, so recovery cannot be proven")
	}
	if warm.CheckpointSaves == 0 {
		t.Fatal("warm run wrote no checkpoint")
	}
	c.Close()
	p.Shutdown(5 * time.Second) // Stopping handler persists the final window
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestRestartRecoveryForecastsImmediately is the headline durability
// scenario: feed a vessel past the S-VRF warmup threshold, shut the
// pipeline down, reopen a new pipeline against the same store and
// broker directory, and require the very first post-restart report to
// yield a forecast — no re-warming from MinLiveReports.
func TestRestartRecoveryForecastsImmediately(t *testing.T) {
	dir := t.TempDir()
	store := kvstore.New()
	defer store.Close()
	const topic = "ais"
	const mmsi = ais.MMSI(912000001)
	start := geo.Point{Lat: 37.5, Lon: 24.5}

	last := warmRun(t, dir, store, topic, mmsi, start, 8)

	// Restart: a brand-new pipeline and broker over the surviving state.
	br, err := broker.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	p, err := New(svrfConfig(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)
	c, err := br.Subscribe(topic, "pipeline")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One report past the restart point.
	at := last.Add(30 * time.Second)
	pos := geo.DeadReckon(start, 12, 90, at.Sub(t0).Seconds())
	if _, _, err := br.Produce(topic, strconv.FormatUint(uint64(mmsi), 10), ais.PositionReport{
		MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: 90,
		Status: ais.StatusUnderWayEngine, Timestamp: at,
	}); err != nil {
		t.Fatal(err)
	}
	// Committed group offsets must hold back the already-consumed 8.
	if got := p.ConsumeLoop(c, 400*time.Millisecond); got != 1 {
		t.Fatalf("post-restart loop ingested %d records, want 1 (committed offsets should skip the consumed prefix)", got)
	}
	p.Drain(10 * time.Second)

	st := p.Stats()
	if st.CheckpointRestores < 1 {
		t.Fatal("vessel window was not rehydrated from the checkpoint")
	}
	if st.Forecasts < 1 {
		t.Fatal("first post-restart report produced no forecast: the pipeline re-warmed from scratch")
	}
	h, _ := store.HGetAll("vessel:" + mmsi.String())
	if h["forecast"] == "" {
		t.Fatalf("post-restart state has no forecast: %v", h)
	}
	if h["ts"] != at.UTC().Format(time.RFC3339) {
		t.Fatalf("state ts = %q, want %q", h["ts"], at.UTC().Format(time.RFC3339))
	}
}

// TestCheckpointDedupsReplayedRecords replays the whole topic through a
// fresh consumer group after a restart: every replayed report falls
// inside the rehydrated history window and must be dropped by the
// out-of-order guard, so only the one genuinely new report forecasts.
func TestCheckpointDedupsReplayedRecords(t *testing.T) {
	dir := t.TempDir()
	store := kvstore.New()
	defer store.Close()
	const topic = "ais"
	const mmsi = ais.MMSI(912000002)
	start := geo.Point{Lat: 37.5, Lon: 24.5}

	last := warmRun(t, dir, store, topic, mmsi, start, 8)

	br, err := broker.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	p, err := New(svrfConfig(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)
	// A fresh group has no committed offsets: the full topic replays.
	c, err := br.Subscribe(topic, "replay")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	at := last.Add(30 * time.Second)
	pos := geo.DeadReckon(start, 12, 90, at.Sub(t0).Seconds())
	if _, _, err := br.Produce(topic, strconv.FormatUint(uint64(mmsi), 10), ais.PositionReport{
		MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: 90,
		Status: ais.StatusUnderWayEngine, Timestamp: at,
	}); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsumeLoop(c, 400*time.Millisecond); got != 9 {
		t.Fatalf("replay loop ingested %d records, want 9 (8 stale + 1 new)", got)
	}
	p.Drain(10 * time.Second)

	st := p.Stats()
	if st.CheckpointRestores < 1 {
		t.Fatal("vessel window was not rehydrated from the checkpoint")
	}
	// The 8 replayed reports are nanosecond-identical to the restored
	// tail and must be deduplicated; only the new one may forecast.
	if st.Forecasts != 1 {
		t.Fatalf("forecasts = %d, want exactly 1: replay must be deduplicated against the checkpoint", st.Forecasts)
	}
	h, _ := store.HGetAll("vessel:" + mmsi.String())
	if h["ts"] != at.UTC().Format(time.RFC3339) {
		t.Fatalf("state ts = %q, want the new report's %q", h["ts"], at.UTC().Format(time.RFC3339))
	}
}

// TestChaosPipelineSurvivesStoreFaults runs a full pipeline with a 20%
// store error rate: writes retry, exhausted writes drop to degraded
// mode, and ingest never wedges — every vessel still ends with state in
// the raw store and the retry counters are visible over the API.
func TestChaosPipelineSurvivesStoreFaults(t *testing.T) {
	in := chaos.New(chaos.Policy{ErrorRate: 0.2, Seed: 11})
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Chaos = in
	cfg.CheckpointInterval = 4
	cfg.retry = retry.Policy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, Multiplier: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	vessels := []ais.MMSI{913000001, 913000002, 913000003, 913000004}
	for i, m := range vessels {
		startPos := geo.Point{Lat: 37.0 + float64(i), Lon: 24.0 + float64(i)}
		feedTrack(p, m, startPos, 90, 12, 40, 30*time.Second, t0)
	}
	p.Drain(15 * time.Second)

	st := p.Stats()
	if st.RetryAttempts == 0 {
		t.Fatal("a 20% store error rate produced no retry attempts")
	}
	if st.RetryRetried == 0 {
		t.Fatal("no write ever succeeded after a retry")
	}
	if in.Stats().Errors == 0 {
		t.Fatal("the injector reports no injected errors")
	}
	// Degraded, not wedged: the raw store still holds every vessel.
	for _, m := range vessels {
		h, _ := p.Store().HGetAll("vessel:" + m.String())
		if h["lat"] == "" {
			t.Fatalf("vessel %v lost its state under chaos", m)
		}
	}
	// The retry counters are observable where operators look.
	api := NewAPI(p)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "retry_attempts") {
		t.Fatalf("/api/stats missing retry counters: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "seatwin_chaos_errors_total") {
		t.Fatalf("/metrics missing chaos gauges: %d", rec.Code)
	}
}

// TestChaosConsumeLoopDeliversEverything drives ConsumeLoop through a
// chaos-wrapped consumer that stalls polls and panics at random: faults
// must degrade to backoff-and-retry, never to record loss, so every
// produced record is ingested exactly once.
func TestChaosConsumeLoopDeliversEverything(t *testing.T) {
	br := broker.New()
	if err := br.CreateTopic("ais", 4); err != nil {
		t.Fatal(err)
	}
	const total = 200
	vessels := []ais.MMSI{914000001, 914000002, 914000003, 914000004}
	// Stream the production from a goroutine, a few records at a time,
	// so the consume loop runs many poll/commit rounds (each one a fault
	// roll) instead of draining the whole topic in a single batch.
	go func() {
		for i := 0; i < total; i++ {
			m := vessels[i%len(vessels)]
			at := t0.Add(time.Duration(i/len(vessels)) * 30 * time.Second)
			pos := geo.DeadReckon(geo.Point{Lat: 36.0, Lon: 23.0}, 10, 45, at.Sub(t0).Seconds())
			if _, _, err := br.Produce("ais", m.String(), ais.PositionReport{
				MMSI: m, Lat: pos.Lat, Lon: pos.Lon, SOG: 10, COG: 45,
				Status: ais.StatusUnderWayEngine, Timestamp: at,
			}); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 4 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.retry = retry.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Multiplier: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	in := chaos.New(chaos.Policy{ErrorRate: 0.3, PanicRate: 0.05, Seed: 5})
	c, err := br.Subscribe("ais", "g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := p.ConsumeLoop(chaos.WrapConsumer(c, in), 250*time.Millisecond)
	if got != total {
		t.Fatalf("consume loop delivered %d of %d records under chaos", got, total)
	}
	p.Drain(10 * time.Second)
	if st := p.Stats(); st.Messages != total {
		t.Fatalf("pipeline ingested %d of %d records", st.Messages, total)
	}
	cs := in.Stats()
	if cs.Errors == 0 && cs.Panics == 0 {
		t.Fatal("chaos injected nothing — the test proved nothing")
	}
}
