// Package events implements the maritime situational-awareness
// functions of §5: real-time close-proximity detection, AIS switch-off
// detection, and collision forecasting over S-VRF (or baseline)
// trajectory forecasts — together with the evaluation harness that
// reproduces Table 2.
package events

import (
	"fmt"
	"sync"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// Kind labels an event record.
type Kind string

// Event kinds.
const (
	KindProximity         Kind = "proximity"
	KindSwitchOff         Kind = "ais-switch-off"
	KindCollisionForecast Kind = "collision-forecast"
)

// Event is one detected or forecast maritime event.
type Event struct {
	Kind Kind
	// A is always set; B is set for pairwise events.
	A, B ais.MMSI
	// At is when the event occurred or is forecast to occur.
	At time.Time
	// DetectedAt is when the system emitted the event.
	DetectedAt time.Time
	// Pos is the event location (midpoint for pairwise events).
	Pos geo.Point
	// Meters is the relevant distance (separation for proximity and
	// collision events).
	Meters float64
}

// PairKey returns an order-independent identifier for pairwise events.
func (e Event) PairKey() string {
	a, b := e.A, e.B
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%d/%d", a, b)
}

// Log is a bounded, concurrency-safe event log, the in-memory
// counterpart of the event list the UI presents (Figure 4f). Once full
// it is a ring: each Append overwrites the oldest event in place.
type Log struct {
	mu     sync.Mutex
	events []Event // grows to max, then wraps
	head   int     // index of the oldest event once the ring is full
	max    int
	total  int64
}

// NewLog creates a log retaining up to max events (older evicted).
func NewLog(max int) *Log {
	if max <= 0 {
		max = 1 << 14
	}
	return &Log{max: max}
}

// Append adds an event, evicting the oldest when the log is full. It
// is O(1) and allocation-free once the log has filled.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.events) < l.max {
		l.events = append(l.events, e)
		return
	}
	l.events[l.head] = e
	l.head++
	if l.head == l.max {
		l.head = 0
	}
}

// Total returns the count of events ever appended.
func (l *Log) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// ByKind returns the retained events of one kind, oldest first.
func (l *Log) ByKind(k Kind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, part := range [2][]Event{l.events[l.head:], l.events[:l.head]} {
		for _, e := range part {
			if e.Kind == k {
				out = append(out, e)
			}
		}
	}
	return out
}
