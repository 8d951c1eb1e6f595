package hexgrid

import (
	"math/rand"
	"testing"

	"seatwin/internal/geo"
)

func TestTraceLineSameCell(t *testing.T) {
	a := geo.Point{Lat: 37.5, Lon: 24.5}
	b := geo.Destination(a, 45, 50) // 50 m: same res-7 cell
	cells := AppendTraceLine(nil, a, b, 7)
	if len(cells) != 1 {
		t.Fatalf("tiny segment visits %d cells", len(cells))
	}
	if cells[0] != LatLonToCell(a, 7) {
		t.Fatal("wrong cell")
	}
}

func TestTraceLineEndpointsIncluded(t *testing.T) {
	a := geo.Point{Lat: 37.5, Lon: 24.5}
	b := geo.Destination(a, 90, 30000) // ~7 cells at res 7
	cells := AppendTraceLine(nil, a, b, 7)
	if cells[0] != LatLonToCell(a, 7) {
		t.Fatal("start cell missing")
	}
	if cells[len(cells)-1] != LatLonToCell(b, 7) {
		t.Fatal("end cell missing")
	}
	if len(cells) < 3 {
		t.Fatalf("30 km crosses only %d cells", len(cells))
	}
}

func TestTraceLineContiguous(t *testing.T) {
	// Consecutive traced cells must be neighbours (no gaps): the
	// guarantee the collision fan-out relies on.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := geo.Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*300 - 150}
		b := geo.Destination(a, rng.Float64()*360, 1000+rng.Float64()*40000)
		cells := AppendTraceLine(nil, a, b, 7)
		seen := map[Cell]bool{}
		for j, c := range cells {
			if seen[c] {
				t.Fatalf("cell repeated at %d", j)
			}
			seen[c] = true
			if j == 0 {
				continue
			}
			if d := gridDistance(cells[j-1], c); d != 1 {
				t.Fatalf("trace gap: consecutive cells at distance %d (seg %v -> %v)", d, a, b)
			}
		}
	}
}

func TestTraceLineCoversIntermediatePoints(t *testing.T) {
	// Every point of the segment lies in a traced cell or in a cell
	// adjacent to one (corner clips shorter than the sampling step may
	// be represented by their neighbour): with the pipeline's
	// GridDisk(1) expansion this is full coverage.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a := geo.Point{Lat: rng.Float64()*100 - 50, Lon: rng.Float64()*300 - 150}
		b := geo.Destination(a, rng.Float64()*360, 20000)
		cells := AppendTraceLine(nil, a, b, 8)
		member := map[Cell]bool{}
		for _, c := range cells {
			member[c] = true
		}
		for f := 0.0; f <= 1.0; f += 0.05 {
			p := geo.Interpolate(a, b, f)
			pc := LatLonToCell(p, 8)
			if member[pc] {
				continue
			}
			adjacent := false
			for _, n := range neighbors(pc) {
				if member[n] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("point at f=%.2f neither traced nor adjacent", f)
			}
		}
	}
}

func TestTraceLineInvalidInputs(t *testing.T) {
	a := geo.Point{Lat: 37.5, Lon: 24.5}
	if cells := AppendTraceLine(nil, a, geo.Point{Lat: 95, Lon: 0}, 7); cells != nil {
		t.Fatal("invalid endpoint must yield nil")
	}
	if cells := AppendTraceLine(nil, a, a, -1); cells != nil {
		t.Fatal("invalid resolution must yield nil")
	}
}

func BenchmarkTraceLine(b *testing.B) {
	a := geo.Point{Lat: 37.5, Lon: 24.5}
	p := geo.Destination(a, 120, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendTraceLine(nil, a, p, 7)
	}
}
