package events

import (
	"math/rand"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// The grid detectors must run allocation-free in steady state: slots,
// bins, rings, sample arenas and the returned event slice are all
// recycled. Both tests drive the detectors long enough for every arena
// to reach its working capacity, then assert zero allocations per
// update — including eviction/reinsert churn and event emission.

func TestGridProximityUpdateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	g := NewGridProximityDetector(DefaultProximityConfig())
	const n = 200
	pts := make([]geo.Point, n)
	for i := range pts {
		// ~660 m spacing; vessels 0 and 1 moved within threshold so the
		// emission+cooldown path is exercised (one event, then
		// suppressed).
		pts[i] = geo.Point{Lat: 1.2, Lon: 103.5 + float64(i)*0.006}
	}
	pts[1] = geo.Point{Lat: 1.2, Lon: pts[0].Lon + 0.003}
	// 1 s per update: a full rotation takes 200 s, so entries churn
	// through the staleness ring (evict + reinsert) at steady state.
	at := t0
	for r := 0; r < 4; r++ {
		for i := range pts {
			at = at.Add(time.Second)
			g.Update(ais.MMSI(400000000+i), pts[i], at)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		at = at.Add(time.Second)
		g.Update(ais.MMSI(400000000+i%n), pts[i%n], at)
		i++
	})
	if allocs != 0 {
		t.Fatalf("GridProximityDetector.Update allocates %v/op in steady state, want 0", allocs)
	}
}

func TestGridCollisionUpdateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	// Short expiry so the eviction ring drains at the pace slots churn;
	// with 60 vessels on a 1 s cadence each slot expires (and its ring
	// record pops) before the vessel's next report.
	d := NewGridDetector(DefaultCollisionConfig(), 30*time.Second)
	const n = 60
	rng := rand.New(rand.NewSource(5))
	center := geo.Point{Lat: 1.2, Lon: 103.8}
	fcs := make([]Forecast, n)
	for i := range fcs {
		pos := geo.Destination(center, rng.Float64()*360, rng.Float64()*3000)
		cog := rng.Float64() * 360
		fcs[i] = Forecast{MMSI: ais.MMSI(500000000 + i), Points: []ForecastPoint{
			{Pos: pos, At: t0},
			{Pos: geo.DeadReckon(pos, 12, cog, 120), At: t0.Add(2 * time.Minute)},
			{Pos: geo.DeadReckon(pos, 12, cog, 240), At: t0.Add(4 * time.Minute)},
		}}
	}
	now := t0
	for r := 0; r < 4; r++ {
		for i := range fcs {
			now = now.Add(time.Second)
			d.Update(fcs[i], now)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		now = now.Add(time.Second)
		d.Update(fcs[i%n], now)
		i++
	})
	if allocs != 0 {
		t.Fatalf("GridDetector.Update allocates %v/op in steady state, want 0", allocs)
	}
}

// The same churn on the S-VRF's 7-point, 30-minute shape: 121 samples
// and 16 block boxes per slot, so the box arena is recycled along with
// the sample arena across eviction and reinsert.
func TestGridCollisionUpdateZeroAllocSVRFShape(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	d := NewGridDetector(DefaultCollisionConfig(), 30*time.Second)
	fleet := newCollisionFleet(60, 3000, 5).withSVRFShape()
	fcs := make([]Forecast, len(fleet.mmsi))
	for i := range fcs {
		fcs[i] = fleet.forecast(i, t0)
	}
	now := t0
	emitted := 0
	for r := 0; r < 4; r++ {
		for i := range fcs {
			now = now.Add(time.Second)
			emitted += len(d.Update(fcs[i], now))
		}
	}
	if emitted == 0 || d.Stats().Evicted == 0 {
		t.Fatalf("warm-up emitted %d events and evicted %d slots; the gate would not cover emission and churn",
			emitted, d.Stats().Evicted)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		now = now.Add(time.Second)
		d.Update(fcs[i%len(fcs)], now)
		i++
	})
	if allocs != 0 {
		t.Fatalf("GridDetector.Update allocates %v/op in steady state on the 30-minute shape, want 0", allocs)
	}
}

// The owner path on the same churn: forecasts carry their delivery cell
// sets (copied into a recycled arena per slot) and the detector serves
// the cell that owns the most pairs, so owned sweeps with emission and
// deferred pairs both run inside the measured loop.
func TestGridCollisionUpdateZeroAllocOwned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	fleet := newCollisionFleet(60, 3000, 5).withSVRFShape()
	fcs := make([]Forecast, len(fleet.mmsi))
	var tr CellTracer
	for i := range fcs {
		fcs[i] = fleet.forecast(i, t0)
		fcs[i].Cells = tr.Cells(fcs[i], ownerTestResolution)
	}
	owners := map[uint64]int{}
	var cell uint64
	for i := range fcs {
		for j := i + 1; j < len(fcs); j++ {
			o := ownerCell(fcs[i].Cells, fcs[j].Cells)
			if owners[o]++; o != 0 && (cell == 0 || owners[o] > owners[cell]) {
				cell = o
			}
		}
	}
	d := NewGridDetector(DefaultCollisionConfig(), 30*time.Second)
	d.SetCell(cell)
	now := t0
	emitted := 0
	for r := 0; r < 4; r++ {
		for i := range fcs {
			now = now.Add(time.Second)
			emitted += len(d.Update(fcs[i], now))
		}
	}
	if st := d.Stats(); emitted == 0 || st.Deferred == 0 || st.Evicted == 0 {
		t.Fatalf("warm-up emitted %d events, deferred %d pairs and evicted %d slots; the gate would not cover all three",
			emitted, st.Deferred, st.Evicted)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		now = now.Add(time.Second)
		d.Update(fcs[i%len(fcs)], now)
		i++
	})
	if allocs != 0 {
		t.Fatalf("GridDetector.Update allocates %v/op in steady state on the owner path, want 0", allocs)
	}
}
