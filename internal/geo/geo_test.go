package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// piraeus and heraklion are ~ 300 km apart; reference distance computed
// with an independent Vincenty implementation (sphere-adjusted).
var (
	piraeus   = Point{Lat: 37.9420, Lon: 23.6460}
	heraklion = Point{Lat: 35.3387, Lon: 25.1442}
	rotterdam = Point{Lat: 51.9053, Lon: 4.4666}
	newYork   = Point{Lat: 40.6643, Lon: -74.0465}
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // meters
		tol  float64 // relative tolerance
	}{
		{"zero", piraeus, piraeus, 0, 0},
		{"piraeus-heraklion", piraeus, heraklion, 317.6e3, 0.01},
		{"rotterdam-newyork", rotterdam, newYork, 5877e3, 0.01},
		{"equator-degree", Point{0, 0}, Point{0, 1}, 111195, 0.001},
		{"meridian-degree", Point{0, 0}, Point{1, 0}, 111195, 0.001},
	}
	for _, c := range cases {
		got := Haversine(c.a, c.b)
		if c.want == 0 {
			if got != 0 {
				t.Errorf("%s: got %f want 0", c.name, got)
			}
			continue
		}
		if rel := math.Abs(got-c.want) / c.want; rel > c.tol {
			t.Errorf("%s: got %.1f want %.1f (rel err %.4f)", c.name, got, c.want, rel)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clamp(lat1, -89, 89), Lon: NormalizeLon(lon1)}
		b := Point{Lat: clamp(lat2, -89, 89), Lon: NormalizeLon(lon2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastDistanceAgreesOnShortBaselines(t *testing.T) {
	// Within ~20 km the equirectangular approximation must stay within
	// 1% of haversine at moderate latitudes.
	base := Point{Lat: 37.9, Lon: 23.6}
	for _, bearing := range []float64{0, 45, 90, 135, 180, 225, 270, 315} {
		for _, dist := range []float64{100, 1000, 5000, 20000} {
			p := Destination(base, bearing, dist)
			h := Haversine(base, p)
			f := FastDistance(base, p)
			if rel := math.Abs(h-f) / h; rel > 0.01 {
				t.Errorf("bearing %.0f dist %.0f: haversine %.1f fast %.1f rel %.4f",
					bearing, dist, h, f, rel)
			}
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lat, lon, bearing, distKm float64) bool {
		p := Point{Lat: clamp(lat, -80, 80), Lon: NormalizeLon(lon)}
		b := math.Mod(math.Abs(bearing), 360)
		d := math.Mod(math.Abs(distKm), 500) * 1000
		q := Destination(p, b, d)
		back := Haversine(p, q)
		return math.Abs(back-d) < 1.0 // within a meter over <=500km
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	origin := Point{Lat: 0, Lon: 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{1, 0}, 0},
		{Point{0, 1}, 90},
		{Point{-1, 0}, 180},
		{Point{0, -1}, 270},
	}
	for _, c := range cases {
		got := InitialBearing(origin, c.to)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("bearing to %v: got %f want %f", c.to, got, c.want)
		}
	}
}

func TestDestinationBearingConsistency(t *testing.T) {
	f := func(lat, lon, bearing float64) bool {
		p := Point{Lat: clamp(lat, -70, 70), Lon: NormalizeLon(lon)}
		b := math.Mod(math.Abs(bearing), 360)
		q := Destination(p, b, 10000)
		got := InitialBearing(p, q)
		return courseDiff(got, b) < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeLon(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {540, -180}, {720, 0}, {-360, 0},
	}
	for _, c := range cases {
		if got := NormalizeLon(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalizeLon(%f) = %f, want %f", c.in, got, c.want)
		}
	}
}

func TestNormalizeLonRange(t *testing.T) {
	f := func(lon float64) bool {
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			return true
		}
		n := NormalizeLon(lon)
		return n >= -180 && n < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a, b := piraeus, heraklion
	if d := Haversine(Interpolate(a, b, 0), a); d > 0.001 {
		t.Errorf("f=0 should return start, off by %f m", d)
	}
	if d := Haversine(Interpolate(a, b, 1), b); d > 1.0 {
		t.Errorf("f=1 should return end, off by %f m", d)
	}
	mid := Interpolate(a, b, 0.5)
	da, db := Haversine(a, mid), Haversine(mid, b)
	if math.Abs(da-db) > 1.0 {
		t.Errorf("midpoint not equidistant: %f vs %f", da, db)
	}
}

func TestInterpolateMonotone(t *testing.T) {
	a, b := rotterdam, newYork
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.05 {
		d := Haversine(a, Interpolate(a, b, f))
		if d < prev {
			t.Fatalf("distance from start not monotone at f=%f", f)
		}
		prev = d
	}
}

func TestDisplacementAntimeridian(t *testing.T) {
	a := Point{Lat: 10, Lon: 179.9}
	b := Point{Lat: 10, Lon: -179.9}
	dLat, dLon := Displacement(a, b)
	if dLat != 0 {
		t.Errorf("dLat = %f, want 0", dLat)
	}
	if math.Abs(dLon-0.2) > 1e-9 {
		t.Errorf("dLon = %f, want 0.2", dLon)
	}
}

func TestDisplacementOffsetRoundTrip(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clamp(lat1, -85, 85), Lon: NormalizeLon(lon1)}
		b := Point{Lat: clamp(lat2, -85, 85), Lon: NormalizeLon(lon2)}
		dLat, dLon := Displacement(a, b)
		c := Offset(a, dLat, dLon)
		return math.Abs(c.Lat-b.Lat) < 1e-9 && math.Abs(NormalizeLon(c.Lon-b.Lon)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeadReckonStationary(t *testing.T) {
	p := piraeus
	q := DeadReckon(p, 0, 123, 1800)
	if d := Haversine(p, q); d > 0.001 {
		t.Errorf("zero speed should not move, moved %f m", d)
	}
}

func TestDeadReckonDistance(t *testing.T) {
	// 10 knots for 30 minutes = 5 NM = 9260 m.
	p := Point{Lat: 40, Lon: -30}
	q := DeadReckon(p, 10, 90, 1800)
	want := 5 * MetersPerNauticalMile
	if got := Haversine(p, q); math.Abs(got-want) > 1 {
		t.Errorf("got %f want %f", got, want)
	}
}

func TestBBoxContains(t *testing.T) {
	if !EuropeanCoverage.Contains(piraeus) {
		t.Error("Piraeus must be inside the European coverage box")
	}
	if EuropeanCoverage.Contains(newYork) {
		t.Error("New York must be outside the European coverage box")
	}
	if !AegeanSea.Contains(Point{Lat: 37.5, Lon: 25.0}) {
		t.Error("central Aegean point must be inside the Aegean box")
	}
}

func TestBBoxSampleInside(t *testing.T) {
	f := func(u, v float64) bool {
		u = math.Mod(math.Abs(u), 1)
		v = math.Mod(math.Abs(v), 1)
		return AegeanSea.Contains(AegeanSea.Sample(u, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxExpand(t *testing.T) {
	b := BBox{MinLat: 10, MinLon: 10, MaxLat: 20, MaxLon: 20}.Expand(1)
	if b.MinLat != 9 || b.MaxLat != 21 || b.MinLon != 9 || b.MaxLon != 21 {
		t.Errorf("unexpected expansion: %+v", b)
	}
	top := BBox{MinLat: 80, MinLon: 0, MaxLat: 89.5, MaxLon: 10}.Expand(1)
	if top.MaxLat != 90 {
		t.Errorf("latitude must clamp at the pole, got %f", top.MaxLat)
	}
}

func TestCourseDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {0, 180, 180}, {10, 350, 20}, {350, 10, 20}, {90, 270, 180},
		{359, 1, 2},
	}
	for _, c := range cases {
		if got := courseDiff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("courseDiff(%f,%f) = %f, want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestMetersPerDegree(t *testing.T) {
	perLat, perLonEq := MetersPerDegree(0)
	if math.Abs(perLat-111195) > 1 {
		t.Errorf("meters per degree latitude: %f", perLat)
	}
	if math.Abs(perLonEq-perLat) > 1 {
		t.Errorf("at the equator lon scale must equal lat scale: %f vs %f", perLonEq, perLat)
	}
	_, perLon60 := MetersPerDegree(60)
	if math.Abs(perLon60-perLat/2) > 1 {
		t.Errorf("at 60N lon scale must be half: %f vs %f", perLon60, perLat/2)
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 179.99999}, {-90, -180}, {37.9, 23.6}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	// The longitude domain is half-open: the antimeridian is only -180,
	// so +180 is out of domain like any other over-range value.
	invalid := []Point{{91, 0}, {0, 180}, {0, 181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func BenchmarkHaversine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Haversine(piraeus, heraklion)
	}
}

func BenchmarkFastDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FastDistance(piraeus, heraklion)
	}
}

func BenchmarkDestination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Destination(piraeus, 135, 5000)
	}
}

// The event detectors' grid fast path relies on the batch kernel being
// bitwise identical to per-pair FastDistance calls: the parity tests
// compare distances exactly, so even a reassociated float expression
// would break them.
func TestFastDistancesIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]Point, 257)
	for i := range pts {
		pts[i] = Point{
			Lat: -80 + rng.Float64()*160,
			Lon: -180 + rng.Float64()*360,
		}
	}
	from := Point{Lat: 37.9, Lon: 23.6}
	dst := make([]float64, len(pts))
	FastDistancesInto(dst, from, pts)
	for i, p := range pts {
		if want := FastDistance(from, p); dst[i] != want {
			t.Fatalf("pts[%d]=%v: batch %v != scalar %v", i, p, dst[i], want)
		}
	}
	// Zero-length input must not touch dst.
	sentinel := []float64{42}
	FastDistancesInto(sentinel, from, nil)
	if sentinel[0] != 42 {
		t.Fatalf("empty input overwrote dst")
	}
}

func TestCrossTrackSign(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 10} // path due east along the equator
	left := Point{1, 5}
	right := Point{-1, 5}
	if xt := CrossTrack(left, a, b); xt >= 0 {
		t.Errorf("point north of eastward path should be negative (left), got %f", xt)
	}
	if xt := CrossTrack(right, a, b); xt <= 0 {
		t.Errorf("point south of eastward path should be positive (right), got %f", xt)
	}
	on := Point{0, 5}
	if xt := math.Abs(CrossTrack(on, a, b)); xt > 1 {
		t.Errorf("point on path should have ~0 cross-track, got %f", xt)
	}
}

// courseDiff returns the smallest absolute difference between two courses
// in degrees, in [0, 180].
func courseDiff(a, b float64) float64 {
	d := math.Abs(math.Mod(a-b, 360))
	if d > 180 {
		d = 360 - d
	}
	return d
}
