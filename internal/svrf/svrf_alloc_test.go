package svrf

import (
	"math"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
	"seatwin/internal/traj"
)

// forecastWindow builds one serving-shape window for the alloc and
// parity tests.
func forecastWindow(t testing.TB) traj.Window {
	t.Helper()
	track := straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 2*time.Hour)
	ws := traj.BuildWindows(track, traj.DefaultConfig())
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	return ws[0]
}

// The vessel-actor hot path must not allocate once its buffers are
// warm: the compiled network runs in pooled scratch and the positions
// land in the caller's buffer.
func TestForecastIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the zero-alloc contract holds only in normal builds")
	}
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := forecastWindow(t)
	dst := make([]geo.Point, 0, m.cfg.Horizons)
	dst = m.ForecastInto(dst, w) // compile + warm the pools
	if allocs := testing.AllocsPerRun(100, func() {
		dst = m.ForecastInto(dst, w)
	}); allocs != 0 {
		t.Fatalf("ForecastInto allocates %v/op, want 0", allocs)
	}
}

func TestKinematicForecastIntoZeroAlloc(t *testing.T) {
	k := NewKinematic()
	w := forecastWindow(t)
	dst := k.ForecastInto(nil, w)
	want := k.Forecast(w)
	for h := range want {
		if dst[h] != want[h] {
			t.Fatalf("horizon %d: Into %v != Forecast %v", h, dst[h], want[h])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = k.ForecastInto(dst, w)
	}); allocs != 0 {
		t.Fatalf("Kinematic.ForecastInto allocates %v/op, want 0", allocs)
	}
}

// Forecast goes through the compiled network; the training-path
// Predict stays behind as the parity oracle. The 1e-12 contract is the
// same one nn.TestCompiledParity enforces, re-checked here at the
// model-output level (degrees).
func TestForecastMatchesReferencePredict(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := forecastWindow(t)
	got := m.Forecast(w)
	want := traj.PredictedPositionsInto(nil, w.LastPos, m.net.Predict(w.Input))
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for h := range want {
		if math.Abs(got[h].Lat-want[h].Lat) > 1e-12 || math.Abs(got[h].Lon-want[h].Lon) > 1e-12 {
			t.Fatalf("horizon %d: compiled %v vs reference %v", h, got[h], want[h])
		}
	}
}

// ForecastReportsBatch must agree exactly with per-history calls: both
// run the same compiled network.
func TestForecastReportsBatchMatchesSingle(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	histories := [][]ais.PositionReport{
		straightTrack(geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, time.Hour),
		straightTrack(geo.Point{Lat: 38, Lon: 23}, 120, 9, 45*time.Second, 2*time.Hour),
		straightTrack(geo.Point{Lat: 36, Lon: 25}, 300, 18, 30*time.Second, time.Hour)[:3], // too short
		straightTrack(geo.Point{Lat: 35, Lon: 26}, 10, 6, 60*time.Second, 90*time.Minute),
	}
	pts, anchors, ok := m.ForecastReportsBatch(histories, 4)
	for i, h := range histories {
		wantPts, wantAnchor, wantOK := m.ForecastReports(h)
		if ok[i] != wantOK {
			t.Fatalf("history %d: ok=%v want %v", i, ok[i], wantOK)
		}
		if !wantOK {
			if pts[i] != nil {
				t.Fatalf("history %d: unusable history must have nil points", i)
			}
			continue
		}
		if anchors[i] != wantAnchor {
			t.Fatalf("history %d: anchor mismatch", i)
		}
		if len(pts[i]) != len(wantPts) {
			t.Fatalf("history %d: %d points, want %d", i, len(pts[i]), len(wantPts))
		}
		for j := range wantPts {
			if pts[i][j] != wantPts[j] {
				t.Fatalf("history %d point %d: %v != %v", i, j, pts[i][j], wantPts[j])
			}
		}
	}
}
