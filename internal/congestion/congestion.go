// Package congestion implements the port-congestion monitoring and
// prediction asset the paper lists as future work (§7): it tracks how
// many vessels currently occupy each port's approach area and, by
// rasterising the per-vessel route forecasts the platform already
// produces, predicts the occupancy over the forecast horizon — flagging
// ports whose predicted demand exceeds their configured capacity.
package congestion

import (
	"sort"
	"sync"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// Port is one monitored harbour with its berth capacity.
type Port struct {
	Name     string
	Pos      geo.Point
	Radius   float64 // approach-area radius in meters
	Capacity int     // vessels the port serves comfortably
}

// Status is a port's current and predicted occupancy.
type Status struct {
	Port Port
	// Present is the number of vessels currently inside the radius.
	Present int
	// Arriving counts distinct vessels whose forecast track enters the
	// radius within the horizon (excluding those already present).
	Arriving int
	// PeakPredicted is the largest Present+Arriving seen across the
	// forecast horizon's windows.
	PeakPredicted int
}

// Congested reports whether the predicted peak exceeds capacity.
func (s Status) Congested() bool {
	return s.Port.Capacity > 0 && s.PeakPredicted > s.Port.Capacity
}

// Monitor tracks occupancy from position reports and forecasts. It is
// safe for concurrent use, so the pipeline's writer path can feed it
// directly.
type Monitor struct {
	mu    sync.Mutex
	ports []Port
	// present maps port index -> mmsi -> last seen inside.
	present []map[ais.MMSI]time.Time
	// arrivals maps port index -> mmsi -> predicted entry time.
	arrivals []map[ais.MMSI]time.Time
	// Expiry for stale occupancy entries (vessel left or went silent).
	expiry time.Duration
	// latest tracks the newest observation time, so callers living in
	// wall-clock time can evaluate a simulated or replayed feed by
	// passing a zero time to Snapshot.
	latest time.Time
}

// NewMonitor builds a monitor over the given ports. An expiry of 0
// defaults to 15 minutes.
func NewMonitor(ports []Port, expiry time.Duration) *Monitor {
	if expiry <= 0 {
		expiry = 15 * time.Minute
	}
	m := &Monitor{ports: ports, expiry: expiry}
	m.present = make([]map[ais.MMSI]time.Time, len(ports))
	m.arrivals = make([]map[ais.MMSI]time.Time, len(ports))
	for i := range ports {
		m.present[i] = make(map[ais.MMSI]time.Time)
		m.arrivals[i] = make(map[ais.MMSI]time.Time)
	}
	return m
}

// ObservePosition updates the present occupancy from one report.
func (m *Monitor) ObservePosition(mmsi ais.MMSI, pos geo.Point, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if at.After(m.latest) {
		m.latest = at
	}
	for i, p := range m.ports {
		// Cheap latitude prefilter.
		if d := pos.Lat - p.Pos.Lat; d > 0.5 || d < -0.5 {
			continue
		}
		if geo.FastDistance(pos, p.Pos) <= p.Radius {
			m.present[i][mmsi] = at
		} else {
			delete(m.present[i], mmsi)
		}
	}
}

// ObserveForecast updates predicted arrivals from one vessel forecast.
func (m *Monitor) ObserveForecast(f events.Forecast) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.ports {
		entered := time.Time{}
		for _, fp := range f.Points {
			if d := fp.Pos.Lat - p.Pos.Lat; d > 0.5 || d < -0.5 {
				continue
			}
			if geo.FastDistance(fp.Pos, p.Pos) <= p.Radius {
				entered = fp.At
				break
			}
		}
		if !entered.IsZero() {
			m.arrivals[i][f.MMSI] = entered
		} else {
			delete(m.arrivals[i], f.MMSI)
		}
	}
}

// Snapshot evaluates every port at the given time. A zero now means
// "the newest observation time", which is what replayed or simulated
// feeds want.
func (m *Monitor) Snapshot(now time.Time) []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now.IsZero() {
		now = m.latest
	}
	out := make([]Status, 0, len(m.ports))
	for i, p := range m.ports {
		// Expire stale occupancy.
		for mmsi, seen := range m.present[i] {
			if now.Sub(seen) > m.expiry {
				delete(m.present[i], mmsi)
			}
		}
		for mmsi, eta := range m.arrivals[i] {
			if eta.Before(now.Add(-m.expiry)) {
				delete(m.arrivals[i], mmsi)
			}
		}
		st := Status{Port: p, Present: len(m.present[i])}
		for mmsi := range m.arrivals[i] {
			if _, already := m.present[i][mmsi]; !already {
				st.Arriving++
			}
		}
		st.PeakPredicted = st.Present + st.Arriving
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].PeakPredicted > out[b].PeakPredicted
	})
	return out
}
