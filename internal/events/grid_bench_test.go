package events

import (
	"fmt"
	"math"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// BenchmarkDenseCellUpdate sweeps cell occupancy across the map-scan
// oracles and the grid fast paths. Proximity vessels are spread over a
// ~2.2 km fan-in disc (a res-9 cell plus its threshold margin);
// collision forecasts over a ~10 km disc (a res-7 cell plus margin),
// once with 3-point, 4-minute kinematic tracks and once ("collision30")
// with the S-VRF's 7-point, 30-minute shape, whose 121-tick sweeps are
// what the block-bound pruning in sweepPair exists for. Detectors are
// preloaded via Seed so the timed loop measures pure steady-state
// per-report cost.

const benchGolden = 137.50776405003785 // golden angle, degrees

func benchDiscPoint(center geo.Point, i, n int, radius float64) geo.Point {
	ang := math.Mod(float64(i)*benchGolden, 360)
	r := radius * math.Sqrt(float64(i+1)/float64(n))
	return geo.Destination(center, ang, r)
}

func benchProxPoints(occ int) []geo.Point {
	pts := make([]geo.Point, occ)
	for i := range pts {
		pts[i] = benchDiscPoint(geo.Point{Lat: 1.2, Lon: 103.8}, i, occ, 2200)
	}
	return pts
}

// benchForecasts returns occ straight-line 12 kn forecasts of points
// positions step apart, starting at t0.
func benchForecasts(occ, points int, step time.Duration) []Forecast {
	fcs := make([]Forecast, occ)
	for i := range fcs {
		pos := benchDiscPoint(geo.Point{Lat: 1.2, Lon: 103.8}, i, occ, 10000)
		cog := math.Mod(float64(i)*benchGolden*2, 360)
		pts := make([]ForecastPoint, points)
		for j := range pts {
			dt := time.Duration(j) * step
			pts[j] = ForecastPoint{Pos: geo.DeadReckon(pos, 12, cog, dt.Seconds()), At: t0.Add(dt)}
		}
		fcs[i] = Forecast{MMSI: ais.MMSI(800000000 + i), Points: pts}
	}
	return fcs
}

func BenchmarkDenseCellUpdate(b *testing.B) {
	for _, occ := range []int{10, 100, 1000, 5000} {
		occ := occ
		pts := benchProxPoints(occ)
		fcs := benchForecasts(occ, 3, 2*time.Minute)
		fcs30 := benchForecasts(occ, 7, 5*time.Minute)

		b.Run(fmt.Sprintf("proximity/scan/occ=%d", occ), func(b *testing.B) {
			p := NewProximityDetector(DefaultProximityConfig())
			for i := 0; i < occ; i++ {
				p.Seed(ais.MMSI(800000000+i), pts[i], t0)
			}
			at := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at = at.Add(time.Millisecond)
				p.Update(ais.MMSI(800000000+n%occ), pts[n%occ], at)
			}
		})
		b.Run(fmt.Sprintf("proximity/grid/occ=%d", occ), func(b *testing.B) {
			g := NewGridProximityDetector(DefaultProximityConfig())
			for i := 0; i < occ; i++ {
				g.Seed(ais.MMSI(800000000+i), pts[i], t0)
			}
			at := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at = at.Add(time.Millisecond)
				g.Update(ais.MMSI(800000000+n%occ), pts[n%occ], at)
			}
		})
		b.Run(fmt.Sprintf("collision/scan/occ=%d", occ), func(b *testing.B) {
			if occ >= 5000 {
				b.Skip("quadratic map-scan oracle is impractical at this occupancy")
			}
			benchCollision(b, NewDetector(DefaultCollisionConfig(), 10*time.Minute), fcs)
		})
		b.Run(fmt.Sprintf("collision/grid/occ=%d", occ), func(b *testing.B) {
			benchCollision(b, NewGridDetector(DefaultCollisionConfig(), 10*time.Minute), fcs)
		})
		b.Run(fmt.Sprintf("collision30/scan/occ=%d", occ), func(b *testing.B) {
			if occ >= 1000 {
				b.Skip("quadratic map-scan oracle over 121-tick tracks is impractical at this occupancy")
			}
			benchCollision(b, NewDetector(DefaultCollisionConfig(), 10*time.Minute), fcs30)
		})
		b.Run(fmt.Sprintf("collision30/grid/occ=%d", occ), func(b *testing.B) {
			benchCollision(b, NewGridDetector(DefaultCollisionConfig(), 10*time.Minute), fcs30)
		})
	}
}

// benchCollision preloads d with every forecast, then times Update
// refreshing them round-robin.
func benchCollision(b *testing.B, d interface {
	Seed(Forecast, time.Time)
	Update(Forecast, time.Time) []Event
}, fcs []Forecast) {
	for _, f := range fcs {
		d.Seed(f, t0)
	}
	now := t0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		now = now.Add(time.Millisecond)
		d.Update(fcs[n%len(fcs)], now)
	}
}
