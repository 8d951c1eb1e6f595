package fleetsim

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// ProximityConfig shapes the synthetic vessel-proximity scenario that
// stands in for the Zenodo dataset of §6.2 (itself synthetic): groups
// of vessels converge on meeting points in the Aegean at staggered
// times, producing ground-truth proximity events with known
// times-to-encounter.
type ProximityConfig struct {
	Seed int64
	// Groups4 and Groups3 are counts of 4-vessel and 3-vessel
	// convergence groups (contributing 6 and 3 pairwise events each);
	// the defaults reproduce the paper's 237 events from 187 vessels.
	Groups4, Groups3 int
	// CrossingPairs adds vessel pairs whose tracks cross spatially but
	// miss each other in time — the false-positive bait.
	CrossingPairs int
	// HistoryDuration is how much AIS history precedes the evaluation
	// time.
	HistoryDuration time.Duration
	// ProximityMeters is the ground-truth closeness threshold.
	ProximityMeters float64
}

// DefaultProximityConfig approximates the §6.2 dataset: 213 vessels,
// 237 ground-truth events with ~26% under 2 minutes to encounter and
// ~64% under 5 minutes.
func DefaultProximityConfig() ProximityConfig {
	return ProximityConfig{
		Seed:            1,
		Groups4:         25,
		Groups3:         29,
		CrossingPairs:   13,
		HistoryDuration: 20 * time.Minute,
		ProximityMeters: 1852, // 1 NM, the canonical close-quarters distance
	}
}

// ProximityEvent is one ground-truth close encounter between a vessel
// pair.
type ProximityEvent struct {
	A, B      ais.MMSI
	CPATime   time.Time     // time of closest approach
	CPAMeters float64       // distance at closest approach
	TimeToCPA time.Duration // from the dataset's evaluation time
}

// TrackPoint is one ground-truth position sample.
type TrackPoint struct {
	At  time.Time
	Pos geo.Point
	SOG float64
	COG float64
}

// ProximityDataset bundles the generated scenario.
type ProximityDataset struct {
	Vessels  []Vessel
	EvalTime time.Time
	// History holds the received AIS reports up to EvalTime, per MMSI,
	// in time order — the input the forecasting models see.
	History map[ais.MMSI][]ais.PositionReport
	// Truth holds every ground-truth proximity event after EvalTime.
	Truth []ProximityEvent
	// FullTracks holds dense ground-truth motion (5 s resolution) over
	// the whole scenario for scoring and debugging.
	FullTracks map[ais.MMSI][]TrackPoint
}

// Messages returns the total count of history AIS messages.
func (d *ProximityDataset) Messages() int {
	n := 0
	for _, h := range d.History {
		n += len(h)
	}
	return n
}

// EventsWithin returns the ground-truth events with time-to-CPA at most
// window — the paper's "Sub dataset A" (2 min) and "Sub dataset B"
// (5 min) selections.
func (d *ProximityDataset) EventsWithin(window time.Duration) []ProximityEvent {
	var out []ProximityEvent
	for _, e := range d.Truth {
		if e.TimeToCPA <= window {
			out = append(out, e)
		}
	}
	return out
}

// GenerateProximity builds the scenario.
func GenerateProximity(cfg ProximityConfig) *ProximityDataset {
	if cfg.ProximityMeters <= 0 {
		cfg.ProximityMeters = 1852
	}
	if cfg.HistoryDuration <= 0 {
		cfg.HistoryDuration = 20 * time.Minute
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	evalTime := time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)
	region := geo.AegeanSea.Expand(-0.5) // keep meeting points off the box edge

	// Each encounter vessel sails the same motion model as the world
	// fleet (bounded turn rate + OU course meander), routed through a
	// waypoint at the meeting point timed so groups converge there —
	// keeping the scenario inside the distribution the S-VRF model is
	// trained on, as a real dataset would be.
	type encVessel struct {
		vessel  Vessel
		motion  motionState
		startAt time.Time
	}
	var encounters []*encVessel
	idx := 0
	start := evalTime.Add(-cfg.HistoryDuration)
	end := evalTime.Add(35 * time.Minute)

	newEnc := func(passPos geo.Point, passTime time.Time, approach, speed float64) *encVessel {
		v := NewVessel(idx, rng)
		idx++
		// Tame extreme profiles so the timing math holds.
		v.Profile.CruiseKn = speed
		v.Profile.MaxTurnRate = 20 + rng.Float64()*20
		// Start back along the approach bearing so that sailing at
		// `speed` reaches the pass point at passTime.
		lead := passTime.Sub(start).Seconds()
		dist := speed * geo.KnotsToMetersPerSecond * lead
		startPos := geo.Destination(passPos, approach+180, dist)
		exitPos := geo.Destination(passPos, approach, 25000)
		e := &encVessel{vessel: v, startAt: start}
		e.motion = motionState{
			pos:     startPos,
			sog:     speed,
			cog:     approach,
			targets: []geo.Point{passPos, exitPos},
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(idx)*0x9E3779B9)),
		}
		encounters = append(encounters, e)
		return e
	}

	// sampleTTE draws a time-to-encounter matching the paper's subset
	// proportions: ~26% under 2 min, further ~38% in 2-5 min, rest long.
	sampleTTE := func() time.Duration {
		r := rng.Float64()
		var mins float64
		switch {
		case r < 0.257:
			mins = 0.5 + rng.Float64()*1.4
		case r < 0.641:
			mins = 2.1 + rng.Float64()*2.8
		default:
			mins = 5.2 + rng.Float64()*19
		}
		return time.Duration(mins * float64(time.Minute))
	}

	makeGroup := func(size int) {
		meeting := region.Sample(rng.Float64(), rng.Float64())
		tte := sampleTTE()
		passTime := evalTime.Add(tte)
		baseCourse := rng.Float64() * 360
		for k := 0; k < size; k++ {
			// Spread approach directions around the compass and offset
			// each vessel's pass point within a fraction of the
			// proximity radius so every pair closes below threshold.
			course := math.Mod(baseCourse+float64(k)*(360/float64(size))+rng.Float64()*20-10, 360)
			offset := rng.Float64() * cfg.ProximityMeters * 0.25
			pos := geo.Destination(meeting, rng.Float64()*360, offset)
			dt := time.Duration((rng.Float64()*16 - 8) * float64(time.Second))
			speed := 8 + rng.Float64()*10
			newEnc(pos, passTime.Add(dt), course, speed)
		}
	}

	for i := 0; i < cfg.Groups4; i++ {
		makeGroup(4)
	}
	for i := 0; i < cfg.Groups3; i++ {
		makeGroup(3)
	}
	// Crossing pairs: same crossing point, minutes apart — spatial
	// intersection without temporal intersection.
	for i := 0; i < cfg.CrossingPairs; i++ {
		meeting := region.Sample(rng.Float64(), rng.Float64())
		tte := sampleTTE()
		lag := time.Duration((6 + rng.Float64()*14) * float64(time.Minute))
		c1 := rng.Float64() * 360
		c2 := math.Mod(c1+60+rng.Float64()*60, 360)
		newEnc(meeting, evalTime.Add(tte), c1, 9+rng.Float64()*8)
		newEnc(meeting, evalTime.Add(tte).Add(lag), c2, 9+rng.Float64()*8)
	}

	// Integrate dense ground-truth tracks on the shared 5 s grid.
	const step = 5 * time.Second
	full := make(map[ais.MMSI][]TrackPoint, len(encounters))
	vessels := make([]Vessel, 0, len(encounters))
	for _, e := range encounters {
		var track []TrackPoint
		for t := start; !t.After(end); t = t.Add(step) {
			track = append(track, TrackPoint{
				At:  t,
				Pos: e.motion.pos,
				SOG: e.motion.sog,
				COG: e.motion.cog,
			})
			e.motion.advance(step.Seconds(), e.vessel.Profile)
		}
		full[e.vessel.MMSI] = track
		vessels = append(vessels, e.vessel)
	}

	// Derive the received AIS history: sample each track at irregular
	// intervals with dropouts.
	history := make(map[ais.MMSI][]ais.PositionReport, len(encounters))
	for _, e := range encounters {
		pts := full[e.vessel.MMSI]
		var reports []ais.PositionReport
		t := start.Add(time.Duration(rng.Float64() * 20 * float64(time.Second)))
		for t.Before(evalTime) {
			tp, ok := sampleTrack(pts, t)
			if ok && rng.Float64() > 0.1 {
				// Same measurement noise as the live channel: this is
				// what the kinematic baseline's last COG/SOG suffer from.
				pos := geo.Destination(tp.Pos, rng.Float64()*360,
					math.Abs(rng.NormFloat64())*DefaultChannel.PosNoiseMeters)
				sog := math.Max(0, tp.SOG+rng.NormFloat64()*DefaultChannel.SOGNoiseKnots)
				cog := math.Mod(tp.COG+rng.NormFloat64()*DefaultChannel.COGNoiseDeg+360, 360)
				reports = append(reports, ais.PositionReport{
					MMSI: e.vessel.MMSI, Class: e.vessel.Profile.Class,
					Status: ais.StatusUnderWayEngine,
					Lat:    pos.Lat, Lon: pos.Lon,
					SOG: sog, COG: cog, Heading: int(cog),
					Timestamp: t,
				})
			}
			t = t.Add(time.Duration((30 + rng.Float64()*25) * float64(time.Second)))
		}
		history[e.vessel.MMSI] = reports
	}

	d := &ProximityDataset{
		Vessels:    vessels,
		EvalTime:   evalTime,
		History:    history,
		FullTracks: full,
	}
	d.Truth = groundTruthEvents(full, evalTime, cfg.ProximityMeters)
	return d
}

// sampleTrack linearly interpolates the dense track at time t.
func sampleTrack(pts []TrackPoint, t time.Time) (TrackPoint, bool) {
	if len(pts) == 0 || t.Before(pts[0].At) || t.After(pts[len(pts)-1].At) {
		return TrackPoint{}, false
	}
	i := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(t) })
	if i == 0 {
		return pts[0], true
	}
	a, b := pts[i-1], pts[i]
	span := b.At.Sub(a.At).Seconds()
	if span <= 0 {
		return a, true
	}
	f := t.Sub(a.At).Seconds() / span
	return TrackPoint{
		At:  t,
		Pos: geo.Interpolate(a.Pos, b.Pos, f),
		SOG: a.SOG + (b.SOG-a.SOG)*f,
		COG: a.COG, // courses change slowly at this resolution
	}, true
}

// groundTruthEvents scans all vessel pairs for closest approaches under
// the threshold after the evaluation time.
func groundTruthEvents(full map[ais.MMSI][]TrackPoint, evalTime time.Time, thresholdMeters float64) []ProximityEvent {
	ids := make([]ais.MMSI, 0, len(full))
	for id := range full {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var events []ProximityEvent
	for i := 0; i < len(ids); i++ {
		ti := full[ids[i]]
		for j := i + 1; j < len(ids); j++ {
			tj := full[ids[j]]
			// Tracks share the same timeline (same start, step); align
			// by index from the first common time.
			n := len(ti)
			if len(tj) < n {
				n = len(tj)
			}
			best := math.MaxFloat64
			var bestAt time.Time
			for k := 0; k < n; k++ {
				if ti[k].At.Before(evalTime) {
					continue
				}
				// Cheap prefilter: skip pairs >2 degrees apart.
				if math.Abs(ti[k].Pos.Lat-tj[k].Pos.Lat) > 0.2 ||
					math.Abs(ti[k].Pos.Lon-tj[k].Pos.Lon) > 0.25 {
					continue
				}
				d := geo.FastDistance(ti[k].Pos, tj[k].Pos)
				if d < best {
					best = d
					bestAt = ti[k].At
				}
			}
			if best < thresholdMeters {
				events = append(events, ProximityEvent{
					A: ids[i], B: ids[j],
					CPATime:   bestAt,
					CPAMeters: best,
					TimeToCPA: bestAt.Sub(evalTime),
				})
			}
		}
	}
	return events
}
