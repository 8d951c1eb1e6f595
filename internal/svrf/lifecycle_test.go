package svrf

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/geo"
	"seatwin/internal/traj"
)

// trainWindows builds a small but trainable window set.
func trainWindows(t testing.TB, n int) []traj.Window {
	t.Helper()
	var ws []traj.Window
	for i := 0; len(ws) < n; i++ {
		track := straightTrack(geo.Point{Lat: 36 + float64(i)*0.3, Lon: 23 + float64(i)*0.2},
			float64((i*47)%360), 8+float64(i%9), 30*time.Second, 3*time.Hour)
		ws = append(ws, traj.BuildWindows(track, traj.DefaultConfig())...)
	}
	return ws[:n]
}

// referenceForecast is the interpreted-oracle forecast for a window.
func referenceForecast(m *Model, w traj.Window) []geo.Point {
	return traj.PredictedPositionsInto(nil, w.LastPos, m.net.Predict(w.Input))
}

func assertForecastMatchesReference(t *testing.T, m *Model, w traj.Window, context string) {
	t.Helper()
	got := m.Forecast(w)
	want := referenceForecast(m, w)
	for h := range want {
		if math.Abs(got[h].Lat-want[h].Lat) > 1e-9 || math.Abs(got[h].Lon-want[h].Lon) > 1e-9 {
			t.Fatalf("%s: horizon %d: compiled %v vs reference %v — stale snapshot pinned",
				context, h, got[h], want[h])
		}
	}
}

// The regression test for the Train/compiledNet race: forecasts running
// concurrently with Train must neither trip the race detector (the old
// nil-CAS path compiled from weights mid-update) nor pin a stale
// snapshot past Train's invalidation (the old path could CAS a
// pre-training compile in *after* Train stored nil). After every Train
// the next forecast must agree with the reference Predict on the new
// weights.
func TestTrainConcurrentForecastNoStaleSnapshot(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ws := trainWindows(t, 96)
	w := forecastWindow(t)

	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]geo.Point, 0, m.cfg.Horizons)
			for !stop.Load() {
				dst = m.ForecastInto(dst, w)
				if len(dst) != m.cfg.Horizons {
					panic("short forecast")
				}
			}
		}()
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 1
	for r := 0; r < rounds; r++ {
		gen := m.Generation()
		m.Train(ws, opt)
		if got := m.Generation(); got != gen+1 {
			t.Fatalf("round %d: generation %d after Train, want %d", r, got, gen+1)
		}
		assertForecastMatchesReference(t, m, w, "after Train")
	}
	stop.Store(true)
	wg.Wait()
}

func TestCloneSharesNoWeights(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	w := forecastWindow(t)
	before := m.Forecast(w)
	got := c.Forecast(w)
	for h := range before {
		if before[h] != got[h] {
			t.Fatalf("horizon %d: clone forecast %v != original %v", h, got[h], before[h])
		}
	}
	// Training the clone must not move the original.
	opt := DefaultTrainOptions()
	opt.Epochs = 1
	c.Train(trainWindows(t, 96), opt)
	after := m.Forecast(w)
	for h := range before {
		if before[h] != after[h] {
			t.Fatalf("horizon %d: original moved after clone training: %v -> %v", h, before[h], after[h])
		}
	}
	if m.Generation() != 0 {
		t.Fatalf("original generation %d after clone training, want 0", m.Generation())
	}
}

// SwapWeightsFrom under concurrent forecast load: no forecast may block
// or observe torn weights, the swap must land atomically, and after the
// swap the live model must forecast exactly like the candidate.
func TestSwapWeightsUnderForecastLoad(t *testing.T) {
	live, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 99 // different init: swapping must visibly change outputs
	candidate, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 1
	candidate.Train(trainWindows(t, 96), opt)

	w := forecastWindow(t)
	var forecasts atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]geo.Point, 0, live.cfg.Horizons)
			for !stop.Load() {
				dst = live.ForecastInto(dst, w)
				if len(dst) != live.cfg.Horizons {
					panic("short forecast")
				}
				forecasts.Add(1)
			}
		}()
	}
	// Let the load warm up, then swap mid-flight.
	for forecasts.Load() < 100 {
		runtime.Gosched()
	}
	if err := live.SwapWeightsFrom(candidate); err != nil {
		t.Fatal(err)
	}
	// The swap must not have wedged the serving path.
	during := forecasts.Load()
	for forecasts.Load() < during+100 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if live.Generation() != 1 {
		t.Fatalf("generation %d after swap, want 1", live.Generation())
	}
	got := live.Forecast(w)
	want := candidate.Forecast(w)
	for h := range want {
		if got[h] != want[h] {
			t.Fatalf("horizon %d: post-swap forecast %v != candidate %v", h, got[h], want[h])
		}
	}
	assertForecastMatchesReference(t, live, w, "after swap")
}

func TestSwapWeightsRejectsGeometryMismatch(t *testing.T) {
	live, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 16
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.SwapWeightsFrom(other); err == nil {
		t.Fatal("swap across geometries must fail")
	}
	if err := live.SwapWeightsFrom(live); err == nil {
		t.Fatal("self-swap must fail")
	}
	if live.Generation() != 0 {
		t.Fatalf("failed swaps must not bump the generation (got %d)", live.Generation())
	}
}
