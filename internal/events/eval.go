package events

import (
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/metrics"
	"seatwin/internal/svrf"
)

// TrackForecaster turns a vessel's received AIS history into a
// timestamped forecast trajectory. It abstracts over the S-VRF model
// and the linear kinematic baseline for the Table 2 experiments.
type TrackForecaster interface {
	Name() string
	// ForecastTrack returns the present position plus the predicted
	// points; ok is false when the history is unusable.
	ForecastTrack(history []ais.PositionReport) (Forecast, bool)
}

// KinematicForecaster dead-reckons from the last report.
type KinematicForecaster struct {
	Horizons int
	Step     time.Duration
}

// NewKinematicForecaster returns the 6x5-minute baseline.
func NewKinematicForecaster() KinematicForecaster {
	return KinematicForecaster{Horizons: 6, Step: 5 * time.Minute}
}

// Name implements TrackForecaster.
func (k KinematicForecaster) Name() string { return "Linear Kinematic" }

// ForecastTrack implements TrackForecaster.
func (k KinematicForecaster) ForecastTrack(history []ais.PositionReport) (Forecast, bool) {
	if len(history) == 0 {
		return Forecast{}, false
	}
	last := history[len(history)-1]
	pos := geo.Point{Lat: last.Lat, Lon: last.Lon}
	sog := last.SOG
	if sog < 0 {
		sog = 0
	}
	f := Forecast{MMSI: last.MMSI, Points: make([]ForecastPoint, 0, k.Horizons+1)}
	f.Points = append(f.Points, ForecastPoint{Pos: pos, At: last.Timestamp})
	for h := 1; h <= k.Horizons; h++ {
		dt := time.Duration(h) * k.Step
		f.Points = append(f.Points, ForecastPoint{
			Pos: geo.DeadReckon(pos, sog, last.COG, dt.Seconds()),
			At:  last.Timestamp.Add(dt),
		})
	}
	return f, true
}

// SVRFForecaster adapts a trained S-VRF model.
type SVRFForecaster struct {
	Model *svrf.Model
}

// Name implements TrackForecaster.
func (s SVRFForecaster) Name() string { return s.Model.Name() }

// ForecastTrack implements TrackForecaster.
func (s SVRFForecaster) ForecastTrack(history []ais.PositionReport) (Forecast, bool) {
	pts, anchor, ok := s.Model.ForecastReports(history)
	if !ok {
		return Forecast{}, false
	}
	cfg := s.Model.Config()
	f := Forecast{MMSI: anchor.MMSI, Points: make([]ForecastPoint, 0, len(pts)+1)}
	f.Points = append(f.Points, ForecastPoint{
		Pos: geo.Point{Lat: anchor.Lat, Lon: anchor.Lon}, At: anchor.Timestamp,
	})
	for h, p := range pts {
		f.Points = append(f.Points, ForecastPoint{
			Pos: p, At: anchor.Timestamp.Add(time.Duration(h+1) * cfg.HorizonStep),
		})
	}
	return f, true
}

// ForecastTracks forecasts every history with fc, preserving order and
// skipping unusable histories. Forecasters with a bulk path — the
// S-VRF adapter batches all inputs through the compiled network — are
// detected and used; anything else falls back to per-track calls.
func ForecastTracks(fc TrackForecaster, histories [][]ais.PositionReport) []Forecast {
	type batcher interface {
		ForecastTracks(histories [][]ais.PositionReport) []Forecast
	}
	if b, ok := fc.(batcher); ok {
		return b.ForecastTracks(histories)
	}
	out := make([]Forecast, 0, len(histories))
	for _, h := range histories {
		if f, ok := fc.ForecastTrack(h); ok {
			out = append(out, f)
		}
	}
	return out
}

// ForecastTracks is the bulk form of ForecastTrack: one batched pass
// of the compiled network over every usable history.
func (s SVRFForecaster) ForecastTracks(histories [][]ais.PositionReport) []Forecast {
	pts, anchors, ok := s.Model.ForecastReportsBatch(histories, 0)
	cfg := s.Model.Config()
	out := make([]Forecast, 0, len(histories))
	for i := range histories {
		if !ok[i] {
			continue
		}
		anchor := anchors[i]
		f := Forecast{MMSI: anchor.MMSI, Points: make([]ForecastPoint, 0, len(pts[i])+1)}
		f.Points = append(f.Points, ForecastPoint{
			Pos: geo.Point{Lat: anchor.Lat, Lon: anchor.Lon}, At: anchor.Timestamp,
		})
		for h, p := range pts[i] {
			f.Points = append(f.Points, ForecastPoint{
				Pos: p, At: anchor.Timestamp.Add(time.Duration(h+1) * cfg.HorizonStep),
			})
		}
		out = append(out, f)
	}
	return out
}

// CollisionEvaluation is one row of the Table 2 experiment grid.
type CollisionEvaluation struct {
	Dataset     string
	Forecaster  string
	Threshold   time.Duration
	TruthEvents int
	metrics.Confusion
	Detected []Event
}

// EvaluateCollision runs the collision forecaster over a proximity
// scenario and scores it against the ground truth: the paper's Table 2
// procedure. truth selects the evaluated subset (e.g. events within 2
// or 5 minutes); the vessel population is restricted to the vessels
// participating in those events plus `extras` uninvolved vessels as
// false-positive candidates (0 keeps everyone, mirroring the full
// dataset row).
func EvaluateCollision(
	ds *fleetsim.ProximityDataset,
	fc TrackForecaster,
	truth []fleetsim.ProximityEvent,
	restrictToTruthVessels bool,
	threshold time.Duration,
	datasetName string,
) CollisionEvaluation {
	cfg := CollisionConfig{TemporalThreshold: threshold, SpatialThresholdMeters: 1852}

	// Vessel population.
	var population []ais.MMSI
	if restrictToTruthVessels {
		set := map[ais.MMSI]bool{}
		for _, e := range truth {
			set[e.A] = true
			set[e.B] = true
		}
		for id := range set {
			population = append(population, id)
		}
	} else {
		for id := range ds.History {
			population = append(population, id)
		}
	}
	sort.Slice(population, func(i, j int) bool { return population[i] < population[j] })

	// Forecast every vessel in the population (batched through the
	// compiled network when the forecaster supports it).
	histories := make([][]ais.PositionReport, len(population))
	for i, id := range population {
		histories[i] = ds.History[id]
	}
	forecasts := ForecastTracks(fc, histories)

	// All-pairs detection (the pipeline shards this by hexgrid cell;
	// the evaluation scores the algorithm itself).
	detectedPairs := map[uint64]Event{}
	for i := 0; i < len(forecasts); i++ {
		for j := i + 1; j < len(forecasts); j++ {
			if e, ok := CheckPair(forecasts[i], forecasts[j], cfg); ok {
				e.DetectedAt = ds.EvalTime
				key := e.PairKey()
				if prev, dup := detectedPairs[key]; !dup || e.Meters < prev.Meters {
					detectedPairs[key] = e
				}
			}
		}
	}

	truthPairs := map[uint64]bool{}
	for _, e := range truth {
		truthPairs[PairKey(e.A, e.B)] = true
	}

	ev := CollisionEvaluation{
		Dataset:     datasetName,
		Forecaster:  fc.Name(),
		Threshold:   threshold,
		TruthEvents: len(truthPairs),
	}
	for key, e := range detectedPairs {
		if truthPairs[key] {
			ev.TP++
		} else {
			ev.FP++
		}
		ev.Detected = append(ev.Detected, e)
	}
	ev.FN = len(truthPairs) - ev.TP
	sort.Slice(ev.Detected, func(i, j int) bool { return ev.Detected[i].At.Before(ev.Detected[j].At) })
	return ev
}
