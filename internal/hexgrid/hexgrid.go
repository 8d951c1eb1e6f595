// Package hexgrid implements a hierarchical hexagonal spatial index in
// the spirit of Uber H3, which the paper uses to key its cell and
// collision actors and to rasterise traffic-flow forecasts.
//
// The index tiles the sinusoidal (equal-area) projection of the sphere
// with pointy-top hexagons addressed by axial coordinates (q, r). The
// sinusoidal projection keeps cell areas near-uniform across latitudes,
// which is the property the system actually relies on: proximity
// thresholds and traffic-flow counts must mean roughly the same thing in
// the Aegean and in the North Sea. Exact H3 icosahedral geometry is not
// reproduced (see DESIGN.md); the operations the pipeline needs —
// point-to-cell, cell centroid, k-ring neighbourhoods, disk coverings
// and line traces — are provided with the same semantics.
//
// A Cell packs (resolution, q, r) into a uint64 so it can be used
// directly as a map key and as an actor-registry name.
//
// Known distortions, both documented consequences of the projection:
// the sinusoidal plane shears meridians away from the central one, so a
// fixed geographic radius can span more hexagon steps at high latitude
// and longitude (use AppendDiskCovering, which compensates, when
// coverage of a geographic radius must be guaranteed), and cells
// touching the antimeridian seam are not adjacent to their geographic
// neighbours on the other side. The paper's evaluation regions
// (European coverage, Aegean) sit well away from both extremes.
package hexgrid

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"seatwin/internal/geo"
)

// MaxResolution is the finest supported resolution.
const MaxResolution = 15

// resolution 0 hexagons have a circumradius of 8 degrees (~890 km);
// every subsequent resolution halves the radius (aperture 4).
const res0Radius = 8.0

const (
	coordBits = 29
	coordBias = 1 << (coordBits - 1) // center the signed axial range
	coordMask = 1<<coordBits - 1
)

// Cell identifies one hexagon of the grid. The zero Cell is invalid.
type Cell uint64

// InvalidCell is returned for out-of-domain inputs.
const InvalidCell Cell = 0

func makeCell(res, q, r int) Cell {
	if q < -coordBias || q >= coordBias || r < -coordBias || r >= coordBias {
		return InvalidCell
	}
	return Cell(uint64(res+1)<<(2*coordBits) |
		uint64(q+coordBias)<<coordBits |
		uint64(r+coordBias))
}

// Resolution returns the cell's resolution in [0, MaxResolution], or -1
// for the invalid cell.
func (c Cell) Resolution() int {
	return int(uint64(c)>>(2*coordBits)) - 1
}

// Valid reports whether the cell is a well-formed grid address.
func (c Cell) Valid() bool {
	r := c.Resolution()
	return r >= 0 && r <= MaxResolution
}

func (c Cell) axial() (q, r int) {
	q = int(uint64(c)>>coordBits&coordMask) - coordBias
	r = int(uint64(c)&coordMask) - coordBias
	return q, r
}

// String renders the cell as hex:<res>:<q>:<r> for logging, actor
// names and topics.
func (c Cell) String() string {
	var buf [32]byte
	return string(c.Append(buf[:0]))
}

// Append appends the String form of the cell to b and returns the
// extended slice.
func (c Cell) Append(b []byte) []byte {
	if !c.Valid() {
		return append(b, "hex:invalid"...)
	}
	q, r := c.axial()
	b = append(b, "hex:"...)
	b = strconv.AppendInt(b, int64(c.Resolution()), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(q), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(r), 10)
}

// ParseCell parses the "hex:<res>:<q>:<r>" form produced by
// Cell.String back into a Cell (the feed layer accepts cell tokens as
// region subscription keys).
func ParseCell(s string) (Cell, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 || parts[0] != "hex" {
		return InvalidCell, fmt.Errorf("hexgrid: malformed cell %q", s)
	}
	var nums [3]int
	for i, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return InvalidCell, fmt.Errorf("hexgrid: malformed cell %q", s)
		}
		nums[i] = v
	}
	res, q, r := nums[0], nums[1], nums[2]
	if res < 0 || res > MaxResolution {
		return InvalidCell, fmt.Errorf("hexgrid: resolution %d out of range", res)
	}
	c := makeCell(res, q, r)
	if !c.Valid() {
		return InvalidCell, fmt.Errorf("hexgrid: coordinates of %q out of range", s)
	}
	return c, nil
}

// Radius returns the circumradius of hexagons at the given resolution,
// expressed in projected degrees.
func Radius(res int) float64 {
	return res0Radius / float64(uint(1)<<uint(res))
}

// EdgeLengthMeters returns the approximate edge length of cells at the
// given resolution, in meters. For a regular hexagon the edge length
// equals the circumradius.
func EdgeLengthMeters(res int) float64 {
	perLat, _ := geo.MetersPerDegree(0)
	return Radius(res) * perLat
}

// project maps a geographic point onto the sinusoidal plane (x easting,
// y northing, both in degrees).
func project(p geo.Point) (x, y float64) {
	lat := p.Lat
	if lat > 89.9 {
		lat = 89.9
	} else if lat < -89.9 {
		lat = -89.9
	}
	return geo.NormalizeLon(p.Lon) * math.Cos(lat*math.Pi/180), lat
}

// unproject maps a plane point back to geographic coordinates.
func unproject(x, y float64) geo.Point {
	lat := y
	if lat > 89.9 {
		lat = 89.9
	} else if lat < -89.9 {
		lat = -89.9
	}
	c := math.Cos(lat * math.Pi / 180)
	lon := x / c
	return geo.Point{Lat: lat, Lon: geo.NormalizeLon(lon)}
}

// Pointy-top axial basis: given circumradius R,
//
//	x = R * sqrt(3) * (q + r/2)
//	y = R * 3/2 * r
func axialToPlane(res, q, r int) (x, y float64) {
	rad := Radius(res)
	x = rad * math.Sqrt(3) * (float64(q) + float64(r)/2)
	y = rad * 1.5 * float64(r)
	return x, y
}

func planeToAxial(res int, x, y float64) (q, r int) {
	rad := Radius(res)
	qf := (math.Sqrt(3)/3*x - y/3) / rad
	rf := (2.0 / 3 * y) / rad
	return hexRound(qf, rf)
}

// hexRound rounds fractional axial coordinates to the containing hexagon
// using cube-coordinate rounding.
func hexRound(qf, rf float64) (int, int) {
	sf := -qf - rf
	q := math.Round(qf)
	r := math.Round(rf)
	s := math.Round(sf)
	dq := math.Abs(q - qf)
	dr := math.Abs(r - rf)
	ds := math.Abs(s - sf)
	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return int(q), int(r)
}

// LatLonToCell returns the cell containing p at the given resolution.
func LatLonToCell(p geo.Point, res int) Cell {
	if res < 0 || res > MaxResolution || !p.Valid() {
		return InvalidCell
	}
	x, y := project(p)
	q, r := planeToAxial(res, x, y)
	return makeCell(res, q, r)
}

// Center returns the centroid of the cell in geographic coordinates.
func (c Cell) Center() geo.Point {
	if !c.Valid() {
		return geo.Point{}
	}
	q, r := c.axial()
	x, y := axialToPlane(c.Resolution(), q, r)
	return unproject(x, y)
}

// AppendGridDisk appends all cells within k hexagon steps of c,
// including c itself — 1 + 3k(k+1) cells (H3's kRing) — to dst and
// returns the extended slice.
func (c Cell) AppendGridDisk(dst []Cell, k int) []Cell {
	if !c.Valid() || k < 0 {
		return dst
	}
	res := c.Resolution()
	cq, cr := c.axial()
	for dq := -k; dq <= k; dq++ {
		lo := max(-k, -dq-k)
		hi := min(k, -dq+k)
		for dr := lo; dr <= hi; dr++ {
			if cell := makeCell(res, cq+dq, cr+dr); cell != InvalidCell {
				dst = append(dst, cell)
			}
		}
	}
	return dst
}

// AppendDiskCovering appends to dst the set of cells at the given
// resolution that is guaranteed to contain every point within
// radiusMeters of p, taking the projection's local shear into account,
// and returns the extended slice. The proximity and collision actors use
// it to decide which cell actors a position or forecast must be shared
// with so that no geographically close pair is split across unexamined
// cells.
func AppendDiskCovering(dst []Cell, p geo.Point, res int, radiusMeters float64) []Cell {
	c := LatLonToCell(p, res)
	if c == InvalidCell {
		return dst
	}
	perLat, _ := geo.MetersPerDegree(0)
	planeDeg := radiusMeters / perLat
	// Local shear of the sinusoidal projection: a north-south geographic
	// displacement dy drags x by lon*sin(lat)*(pi/180)*dy.
	shear := math.Abs(geo.NormalizeLon(p.Lon)*math.Sin(p.Lat*math.Pi/180)) * math.Pi / 180
	maxPlane := planeDeg * (1 + shear)
	// Grid distance k spans at least 1.5*R*k in the plane (hexagon
	// apothem stacking), so this k covers maxPlane.
	k := int(math.Ceil(maxPlane / (1.5 * Radius(res)))) // ≥ 0
	return c.AppendGridDisk(dst, k)
}

// AppendTraceLine appends to dst the distinct cells visited along the
// segment from a to b (inclusive of both endpoints' cells), in travel
// order, and returns the extended slice. It samples the segment at
// half-edge spacing, which cannot skip a cell of the given resolution.
// Segments crossing the antimeridian seam return only the cells on each
// side (documented projection limitation). The "distinct, in travel
// order" contract applies to the cells appended by this call, not
// across the whole of dst.
func AppendTraceLine(dst []Cell, a, b geo.Point, res int) []Cell {
	ca := LatLonToCell(a, res)
	cb := LatLonToCell(b, res)
	if ca == InvalidCell || cb == InvalidCell {
		return dst
	}
	if ca == cb {
		return append(dst, ca)
	}
	dist := geo.Haversine(a, b)
	// Half-edge sampling cannot skip a cell in the projected plane; the
	// geographic step shrinks by the local shear factor (see the
	// package distortion notes).
	mid := geo.Midpoint(a, b)
	shear := math.Abs(geo.NormalizeLon(mid.Lon)*math.Sin(mid.Lat*math.Pi/180)) * math.Pi / 180
	step := EdgeLengthMeters(res) / (2 * (1 + shear))
	n := int(dist/step) + 1
	dst = append(dst, ca)
	last := ca
	for i := 1; i <= n; i++ {
		p := geo.Interpolate(a, b, float64(i)/float64(n))
		c := LatLonToCell(p, res)
		if c != InvalidCell && c != last {
			dst = append(dst, c)
			last = c
		}
	}
	if last != cb {
		dst = append(dst, cb)
	}
	return dst
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
