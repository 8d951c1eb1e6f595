package events

import (
	"fmt"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// ForecastPoint is one timestamped position of a forecast trajectory.
type ForecastPoint struct {
	Pos geo.Point
	At  time.Time
}

// Forecast is a vessel's predicted track: the present position followed
// by the S-VRF's six 5-minute predictions (7 points total in the
// paper's integration, Figure 5).
type Forecast struct {
	MMSI   ais.MMSI
	Points []ForecastPoint
	// Cells is the sorted, duplicate-free set of collision cells the
	// forecast is delivered to (see CellTracer), nil when unknown. Two
	// forecasts' sets decide which single cell sweeps their pair (see
	// GridDetector.SetCell). Shared read-only between receivers.
	Cells []uint64
}

// CollisionConfig parameterises the §5.2 algorithm.
type CollisionConfig struct {
	// TemporalThreshold is the paper's "system defined time interval
	// threshold that accounts for close proximity vessel passes": two
	// forecast points may collide only if their times differ by less.
	TemporalThreshold time.Duration
	// SpatialThresholdMeters is the separation below which intersecting
	// forecasts count as a potential collision.
	SpatialThresholdMeters float64
}

// DefaultCollisionConfig matches the Table 2 experiments' 2-minute
// variant with a 1 NM close-quarters radius.
func DefaultCollisionConfig() CollisionConfig {
	return CollisionConfig{
		TemporalThreshold:      2 * time.Minute,
		SpatialThresholdMeters: 1852,
	}
}

// checkStep is the time resolution the forecast trajectories are
// interpolated to when assessing intersection. Vessels move ~100-200 m
// per step at typical speeds, well inside the spatial threshold.
const checkStep = 15 * time.Second

// checkStepNanos is checkStep as integer nanoseconds, the unit of the
// epoch-aligned tick grid below.
const checkStepNanos = int64(checkStep)

// Validate reports whether the config can drive a GridDetector, whose
// sweep slides one precomputed track against the other in whole
// checkSteps: TemporalThreshold must be a non-negative multiple of
// 15 s. CheckPair itself accepts any threshold.
func (c CollisionConfig) Validate() error {
	if c.TemporalThreshold < 0 || c.TemporalThreshold%checkStep != 0 {
		return fmt.Errorf("events: collision TemporalThreshold %v is not a non-negative multiple of %v", c.TemporalThreshold, checkStep)
	}
	return nil
}

// prefilterMarginMeters is the slack the raw-point prefilter adds to
// the spatial threshold: how far the vessels can close between raw
// forecast points (one 5-minute interval at speed). The grid detector's
// circle prune derives its own slack from this same constant.
const prefilterMarginMeters = 20000.0

// The pair check samples both trajectories on a Unix-epoch-aligned
// checkStep grid rather than on a grid anchored at one forecast's start
// time. Alignment makes the sample times a global property of the clock
// instead of a property of the pair: every forecast can be interpolated
// once, at insert, and the precomputed positions serve every pair check
// it ever participates in (see collision_grid.go). tickTime must be the
// single conversion both paths use so their time.Time values are
// identical.

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// tickRange returns the inclusive range of epoch-aligned ticks covered
// by the forecast's time span. first > last when the span is too short
// to contain a tick.
func tickRange(f Forecast) (first, last int64) {
	startNs := f.Points[0].At.UnixNano()
	endNs := f.Points[len(f.Points)-1].At.UnixNano()
	first = -floorDiv(-startNs, checkStepNanos) // ceil
	last = floorDiv(endNs, checkStepNanos)
	return first, last
}

// tickTime converts a tick index back to its instant.
func tickTime(k int64) time.Time {
	return time.Unix(0, k*checkStepNanos).UTC()
}

// interpAt returns the forecast position at time t, linearly
// interpolated between forecast points. ok is false outside the
// forecast's time span.
func interpAt(f Forecast, t time.Time) (geo.Point, bool) {
	pts := f.Points
	if len(pts) == 0 || t.Before(pts[0].At) || t.After(pts[len(pts)-1].At) {
		return geo.Point{}, false
	}
	for i := 1; i < len(pts); i++ {
		if t.After(pts[i].At) {
			continue
		}
		span := pts[i].At.Sub(pts[i-1].At).Seconds()
		if span <= 0 {
			return pts[i].Pos, true
		}
		fr := t.Sub(pts[i-1].At).Seconds() / span
		return geo.Interpolate(pts[i-1].Pos, pts[i].Pos, fr), true
	}
	return pts[len(pts)-1].Pos, true
}

// rawPrefilter is the pair check's cheap first stage: if the closest
// pair of raw forecast points is further than the vessels can close
// within one 5-minute interval plus the threshold, no interpolated pass
// can succeed.
func rawPrefilter(a, b []ForecastPoint, cfg CollisionConfig) bool {
	minRaw := 1e18
	for _, pa := range a {
		for _, pb := range b {
			if d := geo.FastDistance(pa.Pos, pb.Pos); d < minRaw {
				minRaw = d
			}
		}
	}
	return minRaw <= cfg.SpatialThresholdMeters+prefilterMarginMeters
}

// CheckPair applies the two-stage §5.2 test to a pair of forecast
// trajectories: temporal intersection (the vessels occupy nearby
// positions at times differing by at most the temporal threshold)
// followed by spatial intersection of the interpolated forecast tracks.
// It returns the most severe (closest) predicted encounter.
func CheckPair(a, b Forecast, cfg CollisionConfig) (Event, bool) {
	if len(a.Points) == 0 || len(b.Points) == 0 || !rawPrefilter(a.Points, b.Points, cfg) {
		return Event{}, false
	}
	best := Event{Kind: KindCollisionForecast, A: a.MMSI, B: b.MMSI, Meters: cfg.SpatialThresholdMeters}
	found := false

	firstA, lastA := tickRange(a)
	for k := firstA; k <= lastA; k++ {
		t := tickTime(k)
		pa, ok := interpAt(a, t)
		if !ok {
			continue
		}
		// Slide vessel B's clock within the temporal threshold.
		for dt := -cfg.TemporalThreshold; dt <= cfg.TemporalThreshold; dt += checkStep {
			pb, ok := interpAt(b, t.Add(dt))
			if !ok {
				continue
			}
			d := geo.FastDistance(pa, pb)
			if d >= best.Meters {
				continue
			}
			best.Meters = d
			best.Pos = geo.Midpoint(pa, pb)
			best.At = t.Add(dt / 2)
			found = true
		}
	}
	return best, found
}
