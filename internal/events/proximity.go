package events

import (
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// ProximityConfig parameterises live close-proximity detection (§5,
// Figure 4e): two vessels reporting within ThresholdMeters of each
// other within TimeWindow of one another.
type ProximityConfig struct {
	ThresholdMeters float64
	TimeWindow      time.Duration
	// Cooldown suppresses duplicate events for the same pair.
	Cooldown time.Duration
}

// DefaultProximityConfig uses a 500 m radius and 1-minute coincidence
// window.
func DefaultProximityConfig() ProximityConfig {
	return ProximityConfig{
		ThresholdMeters: 500,
		TimeWindow:      time.Minute,
		Cooldown:        5 * time.Minute,
	}
}

// SwitchOffConfig parameterises AIS switch-off detection [9]: a silence
// far exceeding the expected reporting cadence while the vessel was
// under way is flagged as an intentional (or faulty) transponder
// switch-off.
type SwitchOffConfig struct {
	// MinSilence is the absolute minimum gap before flagging.
	MinSilence time.Duration
	// CadenceFactor flags when the gap exceeds the expected interval by
	// this factor.
	CadenceFactor float64
}

// DefaultSwitchOffConfig flags silences over 30 minutes that are at
// least 20x the vessel's recent reporting cadence.
func DefaultSwitchOffConfig() SwitchOffConfig {
	return SwitchOffConfig{MinSilence: 30 * time.Minute, CadenceFactor: 20}
}

// SwitchOffDetector tracks one vessel's reporting cadence. The vessel
// actor owns one instance.
type SwitchOffDetector struct {
	cfg      SwitchOffConfig
	lastSeen time.Time
	lastPos  geo.Point
	// ewma of the inter-report interval, seconds.
	cadence float64
	reports int
	flagged bool
}

// NewSwitchOffDetector creates a detector for one vessel.
func NewSwitchOffDetector(cfg SwitchOffConfig) *SwitchOffDetector {
	if cfg.MinSilence <= 0 {
		cfg = DefaultSwitchOffConfig()
	}
	return &SwitchOffDetector{cfg: cfg}
}

// Update feeds a report. If the preceding silence qualifies as a
// switch-off, the returned event describes it (stamped at the start of
// the silence).
func (s *SwitchOffDetector) Update(mmsi ais.MMSI, pos geo.Point, at time.Time) (Event, bool) {
	defer func() {
		s.lastSeen = at
		s.lastPos = pos
		s.flagged = false
	}()
	if s.reports == 0 {
		s.reports++
		return Event{}, false
	}
	gap := at.Sub(s.lastSeen).Seconds()
	if gap <= 0 {
		return Event{}, false
	}
	var fired Event
	ok := false
	if s.reports >= 3 && !s.flagged {
		expected := s.cadence * s.cfg.CadenceFactor
		if gap > s.cfg.MinSilence.Seconds() && gap > expected {
			fired = Event{
				Kind:       KindSwitchOff,
				A:          mmsi,
				At:         s.lastSeen,
				DetectedAt: at,
				Pos:        s.lastPos,
			}
			ok = true
		}
	}
	// Update cadence, but do not let the anomaly gap poison the
	// baseline estimate.
	if !ok {
		if s.cadence == 0 {
			s.cadence = gap
		} else {
			s.cadence = 0.85*s.cadence + 0.15*gap
		}
	}
	s.reports++
	return fired, ok
}
