package events

import (
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// The map-scan detectors below are the parity oracles of the grid
// detectors the cell and collision actors run (grid_test.go): the
// straightforward form of each algorithm, with no index, no precomputed
// samples and no pruning. They live in tests only.

// Detector accumulates forecasts and detects pairwise collision
// candidates among them by running CheckPair against every live
// forecast: the map-scan oracle of GridDetector.
type Detector struct {
	cfg CollisionConfig
	// forecasts by MMSI; refreshed wholesale on every new forecast.
	forecasts map[ais.MMSI]Forecast
	// expire removes stale forecasts (vessel gone quiet).
	expire time.Duration
	stamps map[ais.MMSI]time.Time
}

// NewDetector creates a detector whose forecasts expire after the given
// duration (0 means 10 minutes).
func NewDetector(cfg CollisionConfig, expire time.Duration) *Detector {
	if expire <= 0 {
		expire = 10 * time.Minute
	}
	return &Detector{
		cfg:       cfg,
		forecasts: make(map[ais.MMSI]Forecast),
		expire:    expire,
		stamps:    make(map[ais.MMSI]time.Time),
	}
}

// Update inserts or refreshes a vessel's forecast and returns the
// collision events it triggers against the other live forecasts.
func (d *Detector) Update(f Forecast, now time.Time) []Event {
	// Evict stale entries.
	for id, ts := range d.stamps {
		if now.Sub(ts) > d.expire {
			delete(d.stamps, id)
			delete(d.forecasts, id)
		}
	}
	var out []Event
	for id, other := range d.forecasts {
		if id == f.MMSI {
			continue
		}
		if e, ok := CheckPair(f, other, d.cfg); ok {
			e.DetectedAt = now
			out = append(out, e)
		}
	}
	d.forecasts[f.MMSI] = f
	d.stamps[f.MMSI] = now
	return out
}

// Seed inserts or refreshes a forecast without running detection — the
// bulk-preload path benchmarks use.
func (d *Detector) Seed(f Forecast, now time.Time) {
	d.forecasts[f.MMSI] = f
	d.stamps[f.MMSI] = now
}

// Size returns the number of live forecasts held.
func (d *Detector) Size() int { return len(d.forecasts) }

// ProximityDetector holds the last positions of the vessels reporting
// in one cell's neighbourhood and scans all of them on every report:
// the map-scan oracle of GridProximityDetector.
type ProximityDetector struct {
	cfg      ProximityConfig
	last     map[ais.MMSI]ForecastPoint
	cooldown map[uint64]time.Time // pair key -> last emission
}

// NewProximityDetector creates an empty detector.
func NewProximityDetector(cfg ProximityConfig) *ProximityDetector {
	if cfg.ThresholdMeters <= 0 {
		cfg = DefaultProximityConfig()
	}
	return &ProximityDetector{
		cfg:      cfg,
		last:     make(map[ais.MMSI]ForecastPoint),
		cooldown: make(map[uint64]time.Time),
	}
}

// Update feeds one position report and returns any proximity events it
// completes.
func (p *ProximityDetector) Update(mmsi ais.MMSI, pos geo.Point, at time.Time) []Event {
	var out []Event
	for id, fp := range p.last {
		if id == mmsi {
			continue
		}
		dt := at.Sub(fp.At)
		if dt < 0 {
			dt = -dt
		}
		if dt > p.cfg.TimeWindow {
			// Stale entry: drop it opportunistically when far in the past.
			if at.Sub(fp.At) > 2*p.cfg.TimeWindow {
				delete(p.last, id)
			}
			continue
		}
		d := geo.FastDistance(pos, fp.Pos)
		if d > p.cfg.ThresholdMeters {
			continue
		}
		e := Event{
			Kind:       KindProximity,
			A:          mmsi,
			B:          id,
			At:         at,
			DetectedAt: at,
			Pos:        geo.Midpoint(pos, fp.Pos),
			Meters:     d,
		}
		if until, ok := p.cooldown[e.PairKey()]; ok && at.Before(until) {
			continue
		}
		p.cooldown[e.PairKey()] = at.Add(p.cfg.Cooldown)
		out = append(out, e)
	}
	p.last[mmsi] = ForecastPoint{Pos: pos, At: at}
	return out
}

// Seed inserts or refreshes a vessel without running detection — the
// bulk-preload path benchmarks use.
func (p *ProximityDetector) Seed(mmsi ais.MMSI, pos geo.Point, at time.Time) {
	p.last[mmsi] = ForecastPoint{Pos: pos, At: at}
}

// Size returns the number of vessels tracked in this detector.
func (p *ProximityDetector) Size() int { return len(p.last) }
