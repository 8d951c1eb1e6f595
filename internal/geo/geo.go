// Package geo provides geodesic primitives on the WGS84 sphere used
// throughout the maritime forecasting system: distances, bearings,
// destination points, great-circle interpolation and bounding boxes.
//
// All angles at the public API are expressed in degrees, distances in
// meters and speeds in knots unless stated otherwise, matching the
// conventions of AIS data. Internally computations use the spherical
// earth model with the WGS84 mean radius; for the distances that matter
// to the system (up to a 30-minute vessel displacement, i.e. tens of
// kilometers) the spherical error is far below the positional noise of
// AIS itself.
package geo

import (
	"fmt"
	"math"
)

const (
	// EarthRadiusMeters is the mean earth radius of the WGS84 ellipsoid.
	EarthRadiusMeters = 6371008.8

	// MetersPerNauticalMile converts nautical miles to meters.
	MetersPerNauticalMile = 1852.0

	// KnotsToMetersPerSecond converts speed in knots to m/s.
	KnotsToMetersPerSecond = MetersPerNauticalMile / 3600.0

	degToRad = math.Pi / 180.0
	radToDeg = 180.0 / math.Pi
)

// Point is a geographic position in degrees, WGS84.
type Point struct {
	Lat float64 // latitude in degrees, positive north, [-90, 90]
	Lon float64 // longitude in degrees, positive east, [-180, 180)
}

// String renders the point with the precision AIS provides (~1e-4 deg).
func (p Point) String() string {
	return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal coordinate domain.
// The longitude domain is half-open, [-180, 180), matching the Point
// contract and NormalizeLon: the antimeridian is represented only as
// -180, so +180 is out of domain (normalize first if it can occur).
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon < 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// NormalizeLon wraps a longitude into [-180, 180).
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

// Normalize returns the point with its longitude wrapped into [-180, 180)
// and its latitude clamped to [-90, 90].
func (p Point) Normalize() Point {
	return Point{Lat: clamp(p.Lat, -90, 90), Lon: NormalizeLon(p.Lon)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	la1 := a.Lat * degToRad
	la2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// FastDistance returns an equirectangular approximation of the distance
// between a and b in meters. It is accurate to well under 1% for the
// short baselines the streaming pipeline evaluates (a few kilometers)
// and roughly 5x cheaper than Haversine; the hot proximity path uses it.
func FastDistance(a, b Point) float64 {
	meanLat := (a.Lat + b.Lat) / 2 * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	x := dLon * math.Cos(meanLat)
	return EarthRadiusMeters * math.Sqrt(x*x+dLat*dLat)
}

// FastDistancesInto writes FastDistance(from, pts[i]) into dst[i] for
// every point. dst must be at least len(pts) long. The arithmetic is
// element-for-element identical to FastDistance — callers that compare
// the results against per-pair FastDistance calls (the event detectors'
// parity tests do) see bitwise-equal values — while the batch form
// keeps the compiler from reloading the fixed operand per call and
// bounds-checks dst once.
func FastDistancesInto(dst []float64, from Point, pts []Point) {
	if len(pts) == 0 {
		return
	}
	dst = dst[:len(pts)]
	fLat, fLon := from.Lat, from.Lon
	for i, p := range pts {
		meanLat := (fLat + p.Lat) / 2 * degToRad
		dLat := (p.Lat - fLat) * degToRad
		dLon := (p.Lon - fLon) * degToRad
		x := dLon * math.Cos(meanLat)
		dst[i] = EarthRadiusMeters * math.Sqrt(x*x+dLat*dLat)
	}
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from true north, in [0, 360).
func InitialBearing(a, b Point) float64 {
	la1 := a.Lat * degToRad
	la2 := b.Lat * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	br := math.Atan2(y, x) * radToDeg
	return math.Mod(br+360, 360)
}

// Destination returns the point reached starting at p and travelling
// distanceMeters along the great circle with the given initial bearing
// (degrees from north).
func Destination(p Point, bearingDeg, distanceMeters float64) Point {
	la1 := p.Lat * degToRad
	lo1 := p.Lon * degToRad
	br := bearingDeg * degToRad
	ad := distanceMeters / EarthRadiusMeters // angular distance

	sinLa2 := math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(br)
	la2 := math.Asin(clamp(sinLa2, -1, 1))
	y := math.Sin(br) * math.Sin(ad) * math.Cos(la1)
	x := math.Cos(ad) - math.Sin(la1)*sinLa2
	lo2 := lo1 + math.Atan2(y, x)

	return Point{Lat: la2 * radToDeg, Lon: NormalizeLon(lo2 * radToDeg)}
}

// Interpolate returns the point a fraction f (0..1) along the great
// circle from a to b. f outside [0,1] extrapolates along the circle.
func Interpolate(a, b Point, f float64) Point {
	d := Haversine(a, b)
	if d == 0 {
		return a
	}
	// For the short segments the pipeline interpolates, re-deriving the
	// bearing and walking the circle is accurate and avoids the special
	// cases of the slerp formulation at antipodes.
	return Destination(a, InitialBearing(a, b), d*f)
}

// Midpoint returns the great-circle midpoint of a and b.
func Midpoint(a, b Point) Point { return Interpolate(a, b, 0.5) }

// CrossTrack returns the signed cross-track distance in meters of point p
// from the great-circle path through a towards b. Negative values lie to
// the left of the path.
func CrossTrack(p, a, b Point) float64 {
	d13 := Haversine(a, p) / EarthRadiusMeters
	th13 := InitialBearing(a, p) * degToRad
	th12 := InitialBearing(a, b) * degToRad
	return math.Asin(clamp(math.Sin(d13)*math.Sin(th13-th12), -1, 1)) * EarthRadiusMeters
}

// Displacement returns the (dLat, dLon) in degrees from a to b with the
// longitude difference wrapped across the antimeridian. It is the feature
// representation the S-VRF model consumes.
func Displacement(a, b Point) (dLat, dLon float64) {
	dLat = b.Lat - a.Lat
	dLon = b.Lon - a.Lon
	if dLon > 180 {
		dLon -= 360
	} else if dLon < -180 {
		dLon += 360
	}
	return dLat, dLon
}

// Offset returns p displaced by (dLat, dLon) degrees, normalized.
func Offset(p Point, dLat, dLon float64) Point {
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}.Normalize()
}

// MetersPerDegree returns the local scale of one degree of latitude and
// one degree of longitude, in meters, at the given latitude.
func MetersPerDegree(latDeg float64) (perLat, perLon float64) {
	perLat = EarthRadiusMeters * degToRad
	perLon = perLat * math.Cos(latDeg*degToRad)
	return perLat, perLon
}

// DeadReckon projects a position forward dt seconds at the given speed
// over ground (knots) and course over ground (degrees), i.e. the linear
// kinematic model the paper uses as the S-VRF baseline.
func DeadReckon(p Point, sogKnots, cogDeg, dtSeconds float64) Point {
	dist := sogKnots * KnotsToMetersPerSecond * dtSeconds
	return Destination(p, cogDeg, dist)
}

// BBox is a geographic bounding box. Boxes never cross the antimeridian;
// regions that do are represented by the caller as two boxes.
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether p lies inside (or on the border of) the box.
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Expand grows the box by the given margin in degrees on every side.
func (b BBox) Expand(deg float64) BBox {
	return BBox{
		MinLat: math.Max(b.MinLat-deg, -90),
		MinLon: b.MinLon - deg,
		MaxLat: math.Min(b.MaxLat+deg, 90),
		MaxLon: b.MaxLon + deg,
	}
}

// Sample returns a point at the given fractional position inside the box
// (u along longitude, v along latitude, both 0..1).
func (b BBox) Sample(u, v float64) Point {
	return Point{
		Lat: b.MinLat + v*(b.MaxLat-b.MinLat),
		Lon: b.MinLon + u*(b.MaxLon-b.MinLon),
	}
}

// EuropeanCoverage is the evaluation-dataset bounding box from §6.1 of
// the paper: the European continent, North Atlantic, Barents, Caspian,
// Red Sea and Persian Gulf.
var EuropeanCoverage = BBox{MinLat: 24.0, MinLon: -41.99983, MaxLat: 78.9862, MaxLon: 68.9986}

// AegeanSea is the region of the synthetic vessel-proximity dataset used
// by the collision-forecasting evaluation (§6.2).
var AegeanSea = BBox{MinLat: 35.0, MinLon: 22.5, MaxLat: 41.0, MaxLon: 28.3}
