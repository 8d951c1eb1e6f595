package traj

import (
	"math"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
)

var t0 = time.Date(2021, 11, 2, 8, 0, 0, 0, time.UTC)

// straightTrack builds a constant-velocity track reporting every
// `every` for `total`.
func straightTrack(mmsi ais.MMSI, start geo.Point, cog, sog float64, every, total time.Duration) []ais.PositionReport {
	var out []ais.PositionReport
	for dt := time.Duration(0); dt <= total; dt += every {
		p := geo.DeadReckon(start, sog, cog, dt.Seconds())
		out = append(out, ais.PositionReport{
			MMSI: mmsi, Lat: p.Lat, Lon: p.Lon, SOG: sog, COG: cog,
			Timestamp: t0.Add(dt),
		})
	}
	return out
}

func TestDownsampleEnforcesMinimumGap(t *testing.T) {
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 10*time.Second, time.Hour)
	ds := Downsample(track, 30*time.Second)
	if len(ds) >= len(track) {
		t.Fatalf("downsampling did not reduce: %d -> %d", len(track), len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if gap := ds[i].Timestamp.Sub(ds[i-1].Timestamp); gap < 30*time.Second {
			t.Fatalf("gap %v below 30 s", gap)
		}
	}
	if !ds[0].Timestamp.Equal(track[0].Timestamp) {
		t.Fatal("first report must be kept")
	}
}

func TestDownsampleKeepsSparse(t *testing.T) {
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 2*time.Minute, time.Hour)
	ds := Downsample(track, 30*time.Second)
	if len(ds) != len(track) {
		t.Fatalf("sparse track must be untouched: %d -> %d", len(track), len(ds))
	}
	if Downsample(nil, 30*time.Second) != nil {
		t.Fatal("empty input must stay empty")
	}
}

func TestBuildWindowsGeometry(t *testing.T) {
	cfg := DefaultConfig()
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 45, 14, 30*time.Second, 3*time.Hour)
	windows := BuildWindows(track, cfg)
	if len(windows) == 0 {
		t.Fatal("no windows from a 3-hour track")
	}
	for _, w := range windows {
		if len(w.Input) != cfg.InputSteps {
			t.Fatalf("input steps %d", len(w.Input))
		}
		for _, row := range w.Input {
			if len(row) != 3 {
				t.Fatalf("feature dim %d", len(row))
			}
		}
		if len(w.Target) != 2*cfg.Horizons {
			t.Fatalf("target dim %d", len(w.Target))
		}
		if len(w.Truth) != cfg.Horizons {
			t.Fatalf("truth points %d", len(w.Truth))
		}
	}
}

func TestWindowTargetsMatchTruth(t *testing.T) {
	// Reconstructing positions from the scaled transitions must land on
	// the interpolated truth.
	cfg := DefaultConfig()
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 80, 12, 30*time.Second, 2*time.Hour)
	windows := BuildWindows(track, cfg)
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	for _, w := range windows[:3] {
		pts := PredictedPositionsInto(nil, w.LastPos, w.Target)
		for h, p := range pts {
			if d := geo.Haversine(p, w.Truth[h]); d > 5 {
				t.Fatalf("horizon %d: reconstructed %.1f m from truth", h, d)
			}
		}
	}
}

func TestWindowTruthOnStraightLine(t *testing.T) {
	// For constant-velocity motion, truth at horizon h must be SOG * t
	// from the anchor.
	cfg := DefaultConfig()
	sog := 10.0
	track := straightTrack(1001, geo.Point{Lat: 40, Lon: -20}, 0, sog, 30*time.Second, 2*time.Hour)
	w := BuildWindows(track, cfg)[0]
	for h, p := range w.Truth {
		wantDist := sog * geo.KnotsToMetersPerSecond * float64(h+1) * 300
		got := geo.Haversine(w.LastPos, p)
		if math.Abs(got-wantDist) > 20 {
			t.Fatalf("horizon %d: truth at %.0f m, want %.0f m", h, got, wantDist)
		}
	}
}

func TestWindowsRejectLongGaps(t *testing.T) {
	cfg := DefaultConfig()
	// Track with a 30-minute hole in the middle.
	a := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 20*time.Minute)
	hole := t0.Add(50 * time.Minute)
	b := straightTrack(1001, geo.Point{Lat: 37.2, Lon: 24.2}, 90, 12, 30*time.Second, 20*time.Minute)
	for i := range b {
		b[i].Timestamp = hole.Add(b[i].Timestamp.Sub(t0))
	}
	track := append(a, b...)
	for _, w := range BuildWindows(track, cfg) {
		for _, row := range w.Input {
			if row[2]*DtScale > cfg.MaxInputGap.Seconds() {
				t.Fatalf("window contains a %v gap", time.Duration(row[2]*DtScale)*time.Second)
			}
		}
	}
}

func TestWindowsInsufficientData(t *testing.T) {
	cfg := DefaultConfig()
	short := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 5*time.Minute)
	if w := BuildWindows(short, cfg); w != nil {
		t.Fatalf("short track produced %d windows", len(w))
	}
	// A track long enough for input but with no 30-minute future must
	// yield nothing either.
	borderline := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 12*time.Minute)
	if w := BuildWindows(borderline, cfg); w != nil {
		t.Fatalf("track without future produced %d windows", len(w))
	}
}

func TestInputFromReports(t *testing.T) {
	// Due north along a meridian: displacement rows are exactly constant
	// (an eastward "straight" course is a great circle that curves in
	// lat/lon space, so this is the only truly constant direction).
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 0, 12, 30*time.Second, time.Hour)
	in, anchor, ok := InputFromReports(track, 20, 30*time.Second)
	if !ok || len(in) != 20 {
		t.Fatalf("input length %d ok=%v", len(in), ok)
	}
	for i := 1; i < len(in); i++ {
		if math.Abs(in[i][0]-in[0][0]) > 1e-6 || math.Abs(in[i][1]-in[0][1]) > 1e-6 {
			t.Fatalf("row %d differs on a straight track", i)
		}
	}
	if anchor.Timestamp.After(track[len(track)-1].Timestamp) {
		t.Fatal("anchor postdates newest report")
	}
	if _, _, ok := InputFromReports(track[:5], 20, 30*time.Second); ok {
		t.Fatal("insufficient history must not build input")
	}
}

func TestSplitFractions(t *testing.T) {
	track := straightTrack(1001, geo.Point{Lat: 37, Lon: 24}, 90, 12, 30*time.Second, 6*time.Hour)
	cfg := DefaultConfig()
	cfg.Stride = 1
	windows := BuildWindows(track, cfg)
	if len(windows) < 100 {
		t.Fatalf("only %d windows", len(windows))
	}
	train, val, test := Split(windows, 0.5, 0.25, 7)
	if len(train)+len(val)+len(test) != len(windows) {
		t.Fatal("split lost windows")
	}
	if math.Abs(float64(len(train))/float64(len(windows))-0.5) > 0.02 {
		t.Fatalf("train fraction %f", float64(len(train))/float64(len(windows)))
	}
	// Deterministic for a fixed seed.
	train2, _, _ := Split(windows, 0.5, 0.25, 7)
	for i := range train {
		if train[i].LastTime != train2[i].LastTime {
			t.Fatal("split not deterministic")
		}
	}
}

func TestWindowsFromSimulatedFleet(t *testing.T) {
	// End-to-end: recorded simulator tracks must yield valid windows
	// with irregular dt features.
	ds := fleetsim.Record(geo.AegeanSea, 30, 3*time.Hour, 11)
	cfg := DefaultConfig()
	total := 0
	irregular := false
	for _, tr := range ds.Tracks {
		ws := BuildWindows(tr.Reports, cfg)
		total += len(ws)
		for _, w := range ws {
			dt0 := w.Input[0][2]
			for _, row := range w.Input {
				if row[2] <= 0 {
					t.Fatal("non-positive dt feature")
				}
				if math.Abs(row[2]-dt0) > 1e-9 {
					irregular = true
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no windows from simulated fleet")
	}
	if !irregular {
		t.Fatal("simulated AIS produced perfectly regular sampling")
	}
}

func TestDownsampledIntervalStatsNearPaper(t *testing.T) {
	// §6.1: after 30 s downsampling the stream averages 78.6 s with a
	// large standard deviation. The simulator should land in the same
	// regime: mean well above 30 s, std comparable to or above the mean.
	if testing.Short() {
		t.Skip("short mode")
	}
	ds := fleetsim.Record(geo.EuropeanCoverage, 150, 4*time.Hour, 13)
	var sum, sumSq float64
	n := 0
	for _, tr := range ds.Tracks {
		d := Downsample(tr.Reports, 30*time.Second)
		for i := 1; i < len(d); i++ {
			dt := d[i].Timestamp.Sub(d[i-1].Timestamp).Seconds()
			sum += dt
			sumSq += dt * dt
			n++
		}
	}
	if n == 0 {
		t.Fatal("no intervals")
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if mean < 40 || mean > 200 {
		t.Fatalf("downsampled mean interval %.1f s, want O(80 s)", mean)
	}
	if std < mean*0.8 {
		t.Fatalf("std %.1f s vs mean %.1f s: tail too light", std, mean)
	}
}

// TestPredictedPositionsAntimeridian walks predicted tracks across the
// ±180 boundary and asserts every produced position stays inside
// geo.Point's half-open longitude domain [-180, 180). The table covers
// eastward and westward crossings, a step landing exactly on the
// antimeridian (must come out as -180, never +180), and a multi-step
// track that crosses and comes back.
func TestPredictedPositionsAntimeridian(t *testing.T) {
	// One output pair is (dLat*DegScale, dLon*DegScale).
	step := func(dLat, dLon float64) []float64 {
		return []float64{dLat * DegScale, dLon * DegScale}
	}
	cat := func(steps ...[]float64) []float64 {
		var out []float64
		for _, s := range steps {
			out = append(out, s...)
		}
		return out
	}
	cases := []struct {
		name    string
		anchor  geo.Point
		output  []float64
		wantLon []float64
	}{
		{
			name:    "eastward crossing wraps negative",
			anchor:  geo.Point{Lat: 52, Lon: 179.95},
			output:  cat(step(0, 0.1), step(0, 0.1)),
			wantLon: []float64{-179.95, -179.85},
		},
		{
			name:    "westward crossing wraps positive",
			anchor:  geo.Point{Lat: -10, Lon: -179.9},
			output:  cat(step(0, -0.2), step(0, -0.2)),
			wantLon: []float64{179.9, 179.7},
		},
		{
			name:    "landing exactly on the antimeridian is -180",
			anchor:  geo.Point{Lat: 0, Lon: 179.5},
			output:  cat(step(0, 0.5)),
			wantLon: []float64{-180},
		},
		{
			name:    "from the -180 edge and back across",
			anchor:  geo.Point{Lat: 60, Lon: -180},
			output:  cat(step(0, -0.25), step(0, 0.5)),
			wantLon: []float64{179.75, -179.75},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := PredictedPositionsInto(nil, tc.anchor, tc.output)
			if len(pts) != len(tc.wantLon) {
				t.Fatalf("got %d points, want %d", len(pts), len(tc.wantLon))
			}
			for i, p := range pts {
				if !p.Valid() {
					t.Errorf("point %d = %v is outside the coordinate domain", i, p)
				}
				if diff := p.Lon - tc.wantLon[i]; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("point %d lon = %v, want %v", i, p.Lon, tc.wantLon[i])
				}
			}
		})
	}
}
