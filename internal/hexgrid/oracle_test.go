package hexgrid

import (
	"math"

	"seatwin/internal/geo"
)

// Geometry oracles the tests check the production grid against. They
// read the same axial packing and projection as the production code but
// walk the grid the textbook way: neighbour offsets, ring walks and
// cube-coordinate distances.

// axialDirections are the six neighbour offsets in axial coordinates.
var axialDirections = [6][2]int{
	{1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1},
}

// neighbors returns the six cells adjacent to c.
func neighbors(c Cell) []Cell {
	if !c.Valid() {
		return nil
	}
	res := c.Resolution()
	q, r := c.axial()
	out := make([]Cell, 0, 6)
	for _, d := range axialDirections {
		if n := makeCell(res, q+d[0], r+d[1]); n != InvalidCell {
			out = append(out, n)
		}
	}
	return out
}

// gridRing returns the cells exactly k steps from c (6k cells for k>0).
func gridRing(c Cell, k int) []Cell {
	if !c.Valid() || k < 0 {
		return nil
	}
	if k == 0 {
		return []Cell{c}
	}
	res := c.Resolution()
	q, r := c.axial()
	// Walk to the ring start then traverse its six sides.
	q += axialDirections[4][0] * k
	r += axialDirections[4][1] * k
	out := make([]Cell, 0, 6*k)
	for side := 0; side < 6; side++ {
		for step := 0; step < k; step++ {
			if cell := makeCell(res, q, r); cell != InvalidCell {
				out = append(out, cell)
			}
			q += axialDirections[side][0]
			r += axialDirections[side][1]
		}
	}
	return out
}

// gridDistance returns the hex-step distance between two cells of the
// same resolution, or -1 when the cells are incomparable.
func gridDistance(a, b Cell) int {
	if !a.Valid() || !b.Valid() || a.Resolution() != b.Resolution() {
		return -1
	}
	aq, ar := a.axial()
	bq, br := b.axial()
	dq := aq - bq
	dr := ar - br
	ds := -dq - dr
	return (abs(dq) + abs(dr) + abs(ds)) / 2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// boundary returns the six corners of the cell in geographic
// coordinates, counter-clockwise.
func boundary(c Cell) []geo.Point {
	if !c.Valid() {
		return nil
	}
	res := c.Resolution()
	q, r := c.axial()
	cx, cy := axialToPlane(res, q, r)
	rad := Radius(res)
	pts := make([]geo.Point, 0, 6)
	for i := 0; i < 6; i++ {
		// pointy-top corners at 30 + 60*i degrees
		ang := (math.Pi / 180) * (60*float64(i) + 30)
		pts = append(pts, unproject(cx+rad*math.Cos(ang), cy+rad*math.Sin(ang)))
	}
	return pts
}
