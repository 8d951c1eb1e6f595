package hexgrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"seatwin/internal/geo"
)

func randomSeaPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lat: rng.Float64()*160 - 80,
		Lon: rng.Float64()*360 - 180,
	}
}

func TestLatLonToCellRoundTrip(t *testing.T) {
	// A point's cell center must be within one sheared circumradius of
	// the point. The sinusoidal projection's shear grows with
	// |lon*sin(lat)|; the bound below follows the package's documented
	// distortion model (see AppendDiskCovering).
	rng := rand.New(rand.NewSource(7))
	for res := 0; res <= MaxResolution; res += 3 {
		for i := 0; i < 200; i++ {
			p := randomSeaPoint(rng)
			c := LatLonToCell(p, res)
			if !c.Valid() {
				t.Fatalf("res %d: invalid cell for %v", res, p)
			}
			if c.Resolution() != res {
				t.Fatalf("res mismatch: got %d want %d", c.Resolution(), res)
			}
			if math.Abs(p.Lat) > 75 {
				continue // polar unprojection stretch, documented
			}
			shear := math.Abs(geo.NormalizeLon(p.Lon)*math.Sin(p.Lat*math.Pi/180)) * math.Pi / 180
			maxErr := Radius(res) * 111320 * (1 + shear) * 1.05
			d := geo.Haversine(p, c.Center())
			if d > maxErr {
				t.Errorf("res %d: point %v center %v dist %.0f m > %.0f m",
					res, p, c.Center(), d, maxErr)
			}
		}
	}
}

func TestCellStability(t *testing.T) {
	// The same point must always map to the same cell, and the cell's
	// center must map back to the same cell. Cells straddling the
	// antimeridian seam are excluded (documented limitation).
	f := func(lat, lon float64) bool {
		p := geo.Point{Lat: math.Mod(math.Abs(lat), 75), Lon: geo.NormalizeLon(lon)}
		if math.Abs(p.Lon) > 170 {
			return true
		}
		c := LatLonToCell(p, 9)
		return c == LatLonToCell(p, 9) && LatLonToCell(c.Center(), 9) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsCount(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 37.9, Lon: 23.6}, 8)
	n := neighbors(c)
	if len(n) != 6 {
		t.Fatalf("expected 6 neighbors, got %d", len(n))
	}
	seen := map[Cell]bool{c: true}
	for _, nb := range n {
		if seen[nb] {
			t.Errorf("duplicate or self neighbor %v", nb)
		}
		seen[nb] = true
		if gridDistance(c, nb) != 1 {
			t.Errorf("neighbor %v at grid distance %d", nb, gridDistance(c, nb))
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		c := LatLonToCell(randomSeaPoint(rng), 7)
		for _, nb := range neighbors(c) {
			found := false
			for _, back := range neighbors(nb) {
				if back == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %v <-> %v", c, nb)
			}
		}
	}
}

func TestGridDiskSize(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 52, Lon: 4}, 9)
	for k := 0; k <= 5; k++ {
		want := 1 + 3*k*(k+1)
		got := len(c.AppendGridDisk(nil, k))
		if got != want {
			t.Errorf("k=%d: disk size %d, want %d", k, got, want)
		}
	}
}

func TestGridDiskContainsCenterAndNeighbors(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 36, Lon: 25}, 10)
	disk := c.AppendGridDisk(nil, 1)
	members := make(map[Cell]bool, len(disk))
	for _, d := range disk {
		members[d] = true
	}
	if !members[c] {
		t.Error("disk must contain the center cell")
	}
	for _, nb := range neighbors(c) {
		if !members[nb] {
			t.Errorf("disk k=1 missing neighbor %v", nb)
		}
	}
}

func TestGridRing(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 45, Lon: -30}, 8)
	for k := 1; k <= 4; k++ {
		ring := gridRing(c, k)
		if len(ring) != 6*k {
			t.Errorf("k=%d: ring size %d, want %d", k, len(ring), 6*k)
		}
		for _, cell := range ring {
			if d := gridDistance(c, cell); d != k {
				t.Errorf("k=%d: ring member at distance %d", k, d)
			}
		}
	}
	if r0 := gridRing(c, 0); len(r0) != 1 || r0[0] != c {
		t.Error("ring 0 must be the cell itself")
	}
}

func TestGridDiskEqualsUnionOfRings(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 10, Lon: 10}, 6)
	disk := make(map[Cell]bool)
	for _, d := range c.AppendGridDisk(nil, 3) {
		disk[d] = true
	}
	count := 0
	for k := 0; k <= 3; k++ {
		for _, cell := range gridRing(c, k) {
			if !disk[cell] {
				t.Fatalf("ring %d member %v not in disk", k, cell)
			}
			count++
		}
	}
	if count != len(disk) {
		t.Errorf("rings produced %d cells, disk has %d", count, len(disk))
	}
}

func TestGridDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := geo.BBox{MinLat: 30, MinLon: 0, MaxLat: 45, MaxLon: 20}
	for i := 0; i < 200; i++ {
		a := LatLonToCell(box.Sample(rng.Float64(), rng.Float64()), 7)
		b := LatLonToCell(box.Sample(rng.Float64(), rng.Float64()), 7)
		c := LatLonToCell(box.Sample(rng.Float64(), rng.Float64()), 7)
		if gridDistance(a, c) > gridDistance(a, b)+gridDistance(b, c) {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestBoundaryGeometry(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 37, Lon: 25}, 8)
	b := boundary(c)
	if len(b) != 6 {
		t.Fatalf("expected 6 corners, got %d", len(b))
	}
	center := c.Center()
	want := Radius(8) * 111320.0
	for _, corner := range b {
		d := geo.Haversine(center, corner)
		// 40% slack: geographic corner distances are distorted by the
		// projection's shear at this cell's longitude.
		if math.Abs(d-want)/want > 0.4 {
			t.Errorf("corner at %.0f m from center, want ~%.0f m", d, want)
		}
	}
}

func TestBoundaryNearCentralMeridianIsRegular(t *testing.T) {
	// On the central meridian the projection has no shear, so corners
	// must sit at the circumradius within a tight tolerance.
	c := LatLonToCell(geo.Point{Lat: 20, Lon: 0.01}, 8)
	center := c.Center()
	want := Radius(8) * 111320.0
	for _, corner := range boundary(c) {
		d := geo.Haversine(center, corner)
		if math.Abs(d-want)/want > 0.02 {
			t.Errorf("corner at %.0f m from center, want ~%.0f m", d, want)
		}
	}
}

func TestDiskCoveringContainsAllNearbyPoints(t *testing.T) {
	// Every point within the requested radius must land in a cell
	// belonging to the covering disk — this is the guarantee the
	// proximity and collision actors rely on.
	rng := rand.New(rand.NewSource(99))
	res := 9
	radius := EdgeLengthMeters(res) * 1.5
	for i := 0; i < 200; i++ {
		p := geo.Point{Lat: rng.Float64()*150 - 75, Lon: rng.Float64()*340 - 170}
		disk := AppendDiskCovering(nil, p, res, radius)
		members := make(map[Cell]bool, len(disk))
		for _, c := range disk {
			members[c] = true
		}
		for j := 0; j < 20; j++ {
			q := geo.Destination(p, rng.Float64()*360, rng.Float64()*radius)
			if math.Abs(q.Lon-p.Lon) > 170 {
				continue // crossed the antimeridian seam
			}
			if !members[LatLonToCell(q, res)] {
				t.Errorf("point %v at %.0f m from %v not covered (disk size %d)",
					q, geo.Haversine(p, q), p, len(disk))
			}
		}
	}
}

func TestEdgeLengthMonotone(t *testing.T) {
	for res := 1; res <= MaxResolution; res++ {
		if EdgeLengthMeters(res) >= EdgeLengthMeters(res-1) {
			t.Errorf("edge length must shrink with resolution: res %d", res)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	if c := LatLonToCell(geo.Point{Lat: 91, Lon: 0}, 5); c != InvalidCell {
		t.Error("out-of-range latitude must yield InvalidCell")
	}
	if c := LatLonToCell(geo.Point{Lat: 0, Lon: 0}, -1); c != InvalidCell {
		t.Error("negative resolution must yield InvalidCell")
	}
	if c := LatLonToCell(geo.Point{Lat: 0, Lon: 0}, MaxResolution+1); c != InvalidCell {
		t.Error("excess resolution must yield InvalidCell")
	}
	if InvalidCell.Valid() {
		t.Error("InvalidCell must not be valid")
	}
	if neighbors(InvalidCell) != nil {
		t.Error("invalid cell has no neighbors")
	}
	if gridDistance(InvalidCell, InvalidCell) != -1 {
		t.Error("grid distance of invalid cells must be -1")
	}
}

func TestDifferentResolutionsIncomparable(t *testing.T) {
	p := geo.Point{Lat: 40, Lon: 20}
	a := LatLonToCell(p, 5)
	b := LatLonToCell(p, 6)
	if gridDistance(a, b) != -1 {
		t.Error("cells of different resolution must be incomparable")
	}
}

func TestNearbyPointsShareDiskMembership(t *testing.T) {
	// Two points within one cell edge of each other must be within grid
	// distance 2 at that resolution — the property the collision actors
	// rely on when they assign forecasts to a cell and its neighbors.
	rng := rand.New(rand.NewSource(21))
	res := 9
	edge := EdgeLengthMeters(res)
	for i := 0; i < 300; i++ {
		p := geo.Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}
		bearing := rng.Float64() * 360
		q := geo.Destination(p, bearing, edge*0.9)
		cp := LatLonToCell(p, res)
		cq := LatLonToCell(q, res)
		if d := gridDistance(cp, cq); d > 2 {
			t.Errorf("points %.0f m apart in cells %d steps apart (%v, %v)",
				geo.Haversine(p, q), d, p, q)
		}
	}
}

func TestCellStringFormat(t *testing.T) {
	c := LatLonToCell(geo.Point{Lat: 37.9, Lon: 23.6}, 8)
	s := c.String()
	if len(s) < 6 || s[:4] != "hex:" {
		t.Errorf("unexpected string form %q", s)
	}
	if InvalidCell.String() != "hex:invalid" {
		t.Errorf("invalid cell string %q", InvalidCell.String())
	}
}

func BenchmarkLatLonToCell(b *testing.B) {
	p := geo.Point{Lat: 37.9, Lon: 23.6}
	for i := 0; i < b.N; i++ {
		LatLonToCell(p, 9)
	}
}

func BenchmarkGridDisk(b *testing.B) {
	c := LatLonToCell(geo.Point{Lat: 37.9, Lon: 23.6}, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AppendGridDisk(nil, 1)
	}
}

func TestParseCellRoundTrip(t *testing.T) {
	for _, res := range []int{0, 4, 7, 9, 15} {
		c := LatLonToCell(geo.Point{Lat: 37.9, Lon: 23.6}, res)
		parsed, err := ParseCell(c.String())
		if err != nil {
			t.Fatalf("res %d: %v", res, err)
		}
		if parsed != c {
			t.Fatalf("res %d: round trip %v != %v", res, parsed, c)
		}
	}
	// Negative axial coordinates round-trip too.
	c := LatLonToCell(geo.Point{Lat: -35.2, Lon: -71.6}, 7)
	if parsed, err := ParseCell(c.String()); err != nil || parsed != c {
		t.Fatalf("negative coords: %v %v", parsed, err)
	}
}

func TestParseCellRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"", "hex:invalid", "hex:7:1", "hex:7:1:2:3", "h3:7:1:2",
		"hex:16:0:0", "hex:-1:0:0", "hex:7:x:2", "hex:7:1:2 ",
		"hex:7:999999999999:0",
	} {
		if _, err := ParseCell(s); err == nil {
			t.Errorf("ParseCell(%q) accepted", s)
		}
	}
}

// TestCellTextMatchesFmtReference pins String and Append to a fmt
// reference, byte for byte, at every resolution and for negative axial
// coordinates, and checks the text parses back.
func TestCellTextMatchesFmtReference(t *testing.T) {
	ref := func(c Cell) string {
		if !c.Valid() {
			return "hex:invalid"
		}
		q, r := c.axial()
		return fmt.Sprintf("hex:%d:%d:%d", c.Resolution(), q, r)
	}
	var cells []Cell
	for res := 0; res <= MaxResolution; res++ {
		for _, p := range []geo.Point{
			{Lat: 37.9, Lon: 23.6}, {Lat: -33.9, Lon: -70.7}, {Lat: 0, Lon: 0}, {Lat: -0.01, Lon: 179.9},
		} {
			cells = append(cells, LatLonToCell(p, res))
		}
		cells = append(cells, makeCell(res, -5, -7), makeCell(res, -coordBias, coordBias-1))
	}
	cells = append(cells, InvalidCell)
	prefix := []byte("x,")
	for _, c := range cells {
		want := ref(c)
		if got := c.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := c.Append(append([]byte(nil), prefix...)); string(got) != "x,"+want {
			t.Fatalf("Append = %q, want %q", got, "x,"+want)
		}
		if !c.Valid() {
			continue
		}
		back, err := ParseCell(want)
		if err != nil || back != c {
			t.Fatalf("ParseCell(%q) = %v, %v; want %v", want, back, err, c)
		}
	}
}
