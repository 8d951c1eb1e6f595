package views

import (
	"io"
	"strconv"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// populate stages n vessels and refreshes once.
func populate(tb testing.TB, v *Views, n int) {
	tb.Helper()
	ts := time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v.ApplyState(VesselState{
			MMSI: ais.MMSI(237000001 + i),
			Name: "VESSEL", Lat: 35 + float64(i%600)*0.01, Lon: 22.5 + float64(i/600)*0.01,
			SOG: 12, COG: 90, Status: "under way using engine",
			TS: ts.Add(time.Duration(i) * time.Millisecond),
			Forecast: []events.ForecastPoint{
				{Pos: geo.Point{Lat: 37.6, Lon: 24.6}, At: ts.Add(5 * time.Minute)},
			},
		})
	}
	v.Refresh()
}

// TestSnapshotReadZeroAlloc gates the zero-alloc claim
// BenchmarkSnapshotRead measures: at the default limit, a /api/vessels
// read from the current snapshot allocates nothing, with or without a
// bounding box.
func TestSnapshotReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	v := New(Config{RefreshInterval: -1})
	defer v.Close()
	populate(t, v, 2000)
	box := geo.BBox{MinLat: 35, MinLon: 22.5, MaxLat: 36, MaxLon: 24}
	for _, c := range []struct {
		name string
		box  *geo.BBox
	}{{"no-bbox", nil}, {"bbox", &box}} {
		var n int
		allocs := testing.AllocsPerRun(200, func() {
			n, _ = v.Vessels().WriteJSON(io.Discard, v.cfg.DefaultLimit, c.box)
		})
		if n != v.cfg.DefaultLimit {
			t.Fatalf("%s: wrote %d vessels, want the default limit %d", c.name, n, v.cfg.DefaultLimit)
		}
		if allocs != 0 {
			t.Fatalf("%s: snapshot read allocates %v/op, want 0", c.name, allocs)
		}
	}
}

// BenchmarkSnapshotRead is the zero-alloc claim: serving /api/vessels
// from a snapshot is one atomic load plus writes of pre-encoded bytes.
// Run with -benchmem; the target is 0 allocs/op.
func BenchmarkSnapshotRead(b *testing.B) {
	v := New(Config{RefreshInterval: -1})
	defer v.Close()
	populate(b, v, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := v.Vessels()
		if _, err := snap.WriteJSON(io.Discard, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotReadBBox is the filtered variant: still lock-free
// and alloc-free, paying one float compare per candidate item.
func BenchmarkSnapshotReadBBox(b *testing.B) {
	v := New(Config{RefreshInterval: -1})
	defer v.Close()
	populate(b, v, 2000)
	box := geo.BBox{MinLat: 35, MinLon: 22.5, MaxLat: 36, MaxLon: 24}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := v.Vessels()
		if _, err := snap.WriteJSON(io.Discard, 100, &box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefresh measures the write-side cost the read side no longer
// pays: folding a staged fleet into fresh snapshots. Steady-state (few
// dirty vessels between refreshes) is the realistic case.
func BenchmarkRefresh(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(sizeName(n), func(b *testing.B) {
			v := New(Config{RefreshInterval: -1})
			defer v.Close()
			populate(b, v, n)
			ts := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Dirty ~1% of the fleet between refreshes.
				for d := 0; d < n/100; d++ {
					m := ais.MMSI(237000001 + (i*31+d)%n)
					v.ApplyState(VesselState{
						MMSI: m, Lat: 36, Lon: 23, SOG: 10, COG: 45,
						Status: "under way using engine",
						TS:     ts.Add(time.Duration(i*n+d) * time.Millisecond),
					})
				}
				v.Refresh()
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1000 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
