package svrf

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/traj"
)

var t0 = time.Date(2021, 11, 2, 8, 0, 0, 0, time.UTC)

func straightTrack(start geo.Point, cog, sog float64, every, total time.Duration) []ais.PositionReport {
	var out []ais.PositionReport
	for dt := time.Duration(0); dt <= total; dt += every {
		p := geo.DeadReckon(start, sog, cog, dt.Seconds())
		out = append(out, ais.PositionReport{
			MMSI: 1001, Lat: p.Lat, Lon: p.Lon, SOG: sog, COG: cog,
			Timestamp: t0.Add(dt),
		})
	}
	return out
}

func TestKinematicForecastGeometry(t *testing.T) {
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	k := NewKinematic()
	pts := k.Forecast(w)
	if len(pts) != 6 {
		t.Fatalf("forecast length %d", len(pts))
	}
	// On noiseless straight motion the kinematic model is near-exact.
	for h, p := range pts {
		if d := geo.Haversine(p, w.Truth[h]); d > 30 {
			t.Fatalf("horizon %d: kinematic off by %.0f m on straight track", h, d)
		}
	}
}

func TestKinematicHandlesUnavailableSOG(t *testing.T) {
	w := traj.Window{LastPos: geo.Point{Lat: 37, Lon: 24}, LastSOG: -1, LastCOG: 90}
	pts := NewKinematic().Forecast(w)
	for _, p := range pts {
		if d := geo.Haversine(p, w.LastPos); d > 0.001 {
			t.Fatalf("unavailable SOG must forecast in place, moved %.1f m", d)
		}
	}
}

func TestModelForecastShape(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	pts := m.Forecast(w)
	if len(pts) != 6 {
		t.Fatalf("forecast length %d", len(pts))
	}
	for _, p := range pts {
		if !p.Valid() {
			t.Fatalf("invalid forecast point %v", p)
		}
	}
}

func TestForecastReportsLivePath(t *testing.T) {
	m, _ := New(DefaultConfig())
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, time.Hour)
	pts, anchor, ok := m.ForecastReports(track)
	if !ok || len(pts) != 6 {
		t.Fatalf("live forecast: ok=%v len=%d", ok, len(pts))
	}
	if anchor.MMSI != track[0].MMSI {
		t.Fatalf("anchor MMSI %v", anchor.MMSI)
	}
	if anchor.Timestamp.After(track[len(track)-1].Timestamp) {
		t.Fatal("anchor cannot postdate the newest report")
	}
	if _, _, ok := m.ForecastReports(track[:5]); ok {
		t.Fatal("short history must not forecast")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	m, _ := New(cfg)
	path := filepath.Join(t.TempDir(), "svrf.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	p1, p2 := m.Forecast(w), loaded.Forecast(w)
	for h := range p1 {
		if p1[h] != p2[h] {
			t.Fatal("loaded model forecasts differently")
		}
	}
}

func TestEvaluateADEPerfectPredictor(t *testing.T) {
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 2*time.Hour)
	windows := traj.BuildWindows(track, traj.DefaultConfig())
	perfect := predictorFunc(func(w traj.Window) []geo.Point { return w.Truth })
	de := EvaluateADE(perfect, windows)
	for h := 0; h < de.Horizons(); h++ {
		if de.ADE(h) != 0 {
			t.Fatalf("perfect predictor ADE(%d) = %f", h, de.ADE(h))
		}
	}
	if empty := EvaluateADE(perfect, nil); empty.Horizons() != 0 {
		t.Fatal("empty evaluation must be empty")
	}
}

type predictorFunc func(traj.Window) []geo.Point

func (f predictorFunc) Name() string                       { return "func" }
func (f predictorFunc) Forecast(w traj.Window) []geo.Point { return f(w) }

func TestConcurrentForecastSharedModel(t *testing.T) {
	// One model instance serving many goroutines — the paper's
	// "mounted only once in memory" deployment. Run with -race.
	m, _ := New(DefaultConfig())
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	want := m.Forecast(w)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := m.Forecast(w)
				for h := range got {
					if got[h] != want[h] {
						panic("concurrent forecast diverged")
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTable1Shape is the miniature of the paper's Table 1: trained on a
// simulated regional dataset, S-VRF must beat the linear kinematic
// baseline in mean ADE, with sensible absolute magnitudes.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test, skipped in short mode")
	}
	ds := fleetsim.Record(geo.AegeanSea, 80, 6*time.Hour, 42)
	cfg := traj.DefaultConfig()
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, cfg)...)
	}
	if len(windows) < 1000 {
		t.Fatalf("only %d windows", len(windows))
	}
	train, _, test := traj.Split(windows, 0.5, 0.25, 7)

	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 10
	m.Train(train, opt)

	deK := EvaluateADE(NewKinematic(), test)
	deM := EvaluateADE(m, test)

	if deM.MeanADE() >= deK.MeanADE() {
		t.Fatalf("S-VRF mean ADE %.1f not better than kinematic %.1f",
			deM.MeanADE(), deK.MeanADE())
	}
	// The margin should be in the paper's regime (several percent, not
	// a rounding artifact, not an implausible blowout).
	rel := (deM.MeanADE() - deK.MeanADE()) / deK.MeanADE() * 100
	if rel > -2 || rel < -60 {
		t.Fatalf("relative mean ADE difference %.1f%% outside plausible range", rel)
	}
	// Error grows with horizon for both models.
	for h := 1; h < 6; h++ {
		if deM.ADE(h) < deM.ADE(h-1) {
			t.Fatalf("S-VRF ADE not monotone in horizon: %f < %f", deM.ADE(h), deM.ADE(h-1))
		}
		if deK.ADE(h) < deK.ADE(h-1) {
			t.Fatalf("kinematic ADE not monotone in horizon")
		}
	}
	// Kinematic at 5 minutes should be within the broad regime of the
	// paper's 97.7 m (same noise physics, different data).
	if deK.ADE(0) < 10 || deK.ADE(0) > 500 {
		t.Fatalf("kinematic 5-min ADE %.1f m outside plausible regime", deK.ADE(0))
	}
}

// TestBiLSTMBeatsLSTMAblation reproduces §4.2's architecture decision
// at small scale: with an equal parameter budget per direction, the
// bidirectional variant should fit the data at least as well.
func TestBiLSTMBeatsLSTMAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test, skipped in short mode")
	}
	ds := fleetsim.Record(geo.AegeanSea, 40, 4*time.Hour, 21)
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, traj.DefaultConfig())...)
	}
	train, _, test := traj.Split(windows, 0.6, 0.0, 3)

	cfgBi := DefaultConfig()
	cfgUni := DefaultConfig()
	cfgUni.Bidirectional = false
	opt := DefaultTrainOptions()
	opt.Epochs = 8

	bi, _ := New(cfgBi)
	uni, _ := New(cfgUni)
	bi.Train(train, opt)
	uni.Train(train, opt)

	adeBi := EvaluateADE(bi, test).MeanADE()
	adeUni := EvaluateADE(uni, test).MeanADE()
	// Allow the unidirectional model a small edge (noise), but a large
	// regression would mean the BiLSTM head is broken.
	if adeBi > adeUni*1.15 {
		t.Fatalf("BiLSTM ADE %.1f much worse than LSTM %.1f", adeBi, adeUni)
	}
	if bi.Name() == uni.Name() {
		t.Fatal("ablation variants must be distinguishable by name")
	}
}

func BenchmarkModelForecast(b *testing.B) {
	m, _ := New(DefaultConfig())
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forecast(w)
	}
}

func BenchmarkKinematicForecast(b *testing.B) {
	k := NewKinematic()
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	w := traj.BuildWindows(track, traj.DefaultConfig())[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Forecast(w)
	}
}
