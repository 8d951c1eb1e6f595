// Package feed is the push side of the Figure 2 middleware: a
// subscription and fan-out subsystem that turns the pipeline's outputs
// (vessel states, S-VRF forecasts, proximity/collision/switch-off
// events) into live streams UI clients subscribe to, instead of polling
// the pull-only /api endpoints.
//
// A Hub maintains topic trees for three subscription kinds —
// per-vessel ("vessel/<mmsi>"), spatial region ("region/<cell>" at a
// configurable hexgrid resolution) and event class ("events/proximity",
// "events/collision", "events/gap") — and fans every published frame
// out to the matching subscribers. Each subscriber owns a bounded ring
// buffer with a pluggable overflow policy (drop-oldest, conflate-by-key
// or disconnect), so one slow client can never stall the publisher: the
// fan-out path is a constant-time, lock-bounded push per subscriber.
//
// The pipeline's writer actors publish every state and event to the hub
// directly.
package feed

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/metrics"
	"seatwin/internal/views"
)

// Topic prefixes and event-class topics.
const (
	TopicVesselPrefix = "vessel/"
	TopicRegionPrefix = "region/"
	TopicProximity    = "events/proximity"
	TopicCollision    = "events/collision"
	TopicGap          = "events/gap"
)

// State is one vessel state frame entering the hub: the writer actor's
// view of a position report plus the forecast produced from it, the
// same value the read-side views stage.
type State = views.VesselState

// Options configure a Hub.
type Options struct {
	// RegionResolution is the hexgrid resolution of the region/<cell>
	// topics (<=0 selects 7, ~4.5 km cells — the collision grid "K").
	RegionResolution int
	// DefaultBuffer is the ring capacity used when a subscriber does not
	// choose one (<=0 selects 256).
	DefaultBuffer int
}

// Stats is a snapshot of the hub's instrumentation.
type Stats struct {
	Subscribers  int64 // currently connected
	TotalSubs    int64 // ever connected
	Published    int64 // frames entering the hub
	Fanned       int64 // frame deliveries enqueued to subscriber rings
	Dropped      int64 // frames evicted by drop-oldest overflow
	Conflated    int64 // frames replaced in place by conflate-by-key
	Disconnected int64 // subscribers force-closed by the disconnect policy
	FanoutP99    time.Duration
	FanoutMean   time.Duration
}

// Hub is the central fan-out switch. All methods are safe for
// concurrent use; publishing never blocks on subscriber consumption.
type Hub struct {
	regionRes int
	defBuffer int

	mu     sync.RWMutex
	topics map[string]map[*Subscription]struct{}
	closed bool

	seq      atomic.Uint64 // frame sequence, dedups multi-topic delivery
	subSeq   atomic.Uint64 // subscriber ids (metrics routing hints)
	subCount atomic.Int64
	totSubs  atomic.Int64
	discon   atomic.Int64

	published *metrics.ShardedCounter
	fanned    *metrics.ShardedCounter
	dropped   *metrics.ShardedCounter
	conflated *metrics.ShardedCounter
	latency   *metrics.ShardedLatencyRecorder
}

// NewHub creates an empty hub.
func NewHub(opt Options) *Hub {
	if opt.RegionResolution <= 0 || opt.RegionResolution > hexgrid.MaxResolution {
		opt.RegionResolution = 7
	}
	if opt.DefaultBuffer <= 0 {
		opt.DefaultBuffer = 256
	}
	return &Hub{
		regionRes: opt.RegionResolution,
		defBuffer: opt.DefaultBuffer,
		topics:    make(map[string]map[*Subscription]struct{}),
		published: metrics.NewShardedCounter(0),
		fanned:    metrics.NewShardedCounter(0),
		dropped:   metrics.NewShardedCounter(0),
		conflated: metrics.NewShardedCounter(0),
		latency:   metrics.NewShardedLatencyRecorder(0),
	}
}

// RegionTopic returns the region/<cell> topic covering a position, at
// the hub's resolution.
func (h *Hub) RegionTopic(p geo.Point) string {
	return TopicRegionPrefix + hexgrid.LatLonToCell(p, h.regionRes).String()
}

// frame is one encoded payload on its way through the hub.
type frame struct {
	seq  uint64
	typ  string // "state" | "event"
	key  string // conflation key ("" = never conflate)
	data []byte
}

// stateJSON is the wire document of a state frame. The type tag makes
// the payload self-describing on both transports.
type stateJSON struct {
	Type     string        `json:"type"`
	MMSI     string        `json:"mmsi"`
	Name     string        `json:"name,omitempty"`
	Lat      float64       `json:"lat"`
	Lon      float64       `json:"lon"`
	SOG      float64       `json:"sog"`
	COG      float64       `json:"cog"`
	Status   string        `json:"status,omitempty"`
	Cell     string        `json:"cell"`
	At       string        `json:"ts"`
	Forecast []fcPointJSON `json:"forecast,omitempty"`
}

type fcPointJSON struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	At  int64   `json:"t"`
}

// eventJSON is the wire document of an event frame.
type eventJSON struct {
	Type   string  `json:"type"`
	Class  string  `json:"class"`
	Kind   string  `json:"kind"`
	A      string  `json:"a"`
	B      string  `json:"b,omitempty"`
	At     string  `json:"at"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	Meters float64 `json:"meters,omitempty"`
}

// EventClass maps an event kind to its feed class ("proximity",
// "collision", "gap"; "" for unknown kinds).
func EventClass(k events.Kind) string {
	switch k {
	case events.KindProximity:
		return "proximity"
	case events.KindCollisionForecast:
		return "collision"
	case events.KindSwitchOff:
		return "gap"
	default:
		return ""
	}
}

// PublishState fans one vessel state frame out to the vessel's topic
// and the region topic of its position. The frame is encoded once; all
// subscribers share the bytes.
func (h *Hub) PublishState(s State) {
	cell := hexgrid.LatLonToCell(geo.Point{Lat: s.Lat, Lon: s.Lon}, h.regionRes).String()
	doc := stateJSON{
		Type: "state", MMSI: s.MMSI.String(), Name: s.Name,
		Lat: s.Lat, Lon: s.Lon, SOG: s.SOG, COG: s.COG,
		Status: s.Status, Cell: cell,
		At: s.TS.UTC().Format(time.RFC3339),
	}
	for _, p := range s.Forecast {
		doc.Forecast = append(doc.Forecast, fcPointJSON{Lat: p.Pos.Lat, Lon: p.Pos.Lon, At: p.At.Unix()})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return // static wire struct; cannot happen
	}
	h.publish(frame{
		seq: h.seq.Add(1), typ: "state", key: "s/" + doc.MMSI, data: data,
	}, TopicVesselPrefix+doc.MMSI, TopicRegionPrefix+cell)
}

// PublishEvent fans one maritime event out to its class topic and the
// per-vessel topics of the vessels involved. Events carry no conflation
// key: they are facts, not replaceable snapshots.
func (h *Hub) PublishEvent(e events.Event) {
	class := EventClass(e.Kind)
	if class == "" {
		return
	}
	doc := eventJSON{
		Type: "event", Class: class, Kind: string(e.Kind),
		A: e.A.String(), At: e.At.UTC().Format(time.RFC3339),
		Lat: e.Pos.Lat, Lon: e.Pos.Lon, Meters: e.Meters,
	}
	if e.B != 0 {
		doc.B = e.B.String()
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return
	}
	topics := make([]string, 0, 3)
	topics = append(topics, "events/"+class, TopicVesselPrefix+doc.A)
	if doc.B != "" {
		topics = append(topics, TopicVesselPrefix+doc.B)
	}
	h.publish(frame{seq: h.seq.Add(1), typ: "event", data: data}, topics...)
}

// publish fans an encoded frame out to every subscriber of the given
// topics. The hub lock is held in read mode only; per-subscriber work
// is one O(1) ring push. Subscribers that overflow under the disconnect
// policy are collected and removed after the fan-out.
func (h *Hub) publish(f frame, topics ...string) {
	start := time.Now()
	h.published.Inc(f.seq, 1)
	var evict []*Subscription
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return
	}
	for _, t := range topics {
		for sub := range h.topics[t] {
			// A frame matching several of the subscriber's topics is
			// delivered once: sequence numbers are globally unique, so a
			// mismatch can never skip a distinct frame.
			if sub.lastSeq.Load() == f.seq {
				continue
			}
			sub.lastSeq.Store(f.seq)
			pushed, conflated, droppedOld := sub.ring.push(f)
			switch {
			case pushed && conflated:
				h.conflated.Inc(sub.id, 1)
			case pushed:
				h.fanned.Inc(sub.id, 1)
				if droppedOld {
					h.dropped.Inc(sub.id, 1)
				}
			default: // overflow under PolicyDisconnect
				evict = append(evict, sub)
			}
		}
	}
	h.mu.RUnlock()
	for _, sub := range evict {
		h.discon.Add(1)
		sub.closeWith(ErrSlowConsumer)
		h.remove(sub)
	}
	h.latency.Observe(f.seq, time.Since(start))
}

// Subscribe registers a subscriber on the given topics. Topics are
// taken verbatim (build them with TopicVesselPrefix/RegionTopic/the
// events/* constants); at least one is required.
func (h *Hub) Subscribe(topics []string, opt SubOptions) (*Subscription, error) {
	if len(topics) == 0 {
		return nil, ErrNoTopics
	}
	if opt.Buffer <= 0 {
		opt.Buffer = h.defBuffer
	}
	sub := &Subscription{
		hub:    h,
		id:     h.subSeq.Add(1),
		topics: append([]string(nil), topics...),
		ring:   newRing(opt.Buffer, opt.Policy),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHubClosed
	}
	for _, t := range sub.topics {
		set, ok := h.topics[t]
		if !ok {
			set = make(map[*Subscription]struct{})
			h.topics[t] = set
		}
		set[sub] = struct{}{}
	}
	h.mu.Unlock()
	h.subCount.Add(1)
	h.totSubs.Add(1)
	return sub, nil
}

// remove detaches a subscriber from every topic tree, pruning emptied
// topics so the map does not accumulate dead vessel/region entries.
func (h *Hub) remove(sub *Subscription) {
	h.mu.Lock()
	removed := false
	for _, t := range sub.topics {
		if set, ok := h.topics[t]; ok {
			if _, had := set[sub]; had {
				removed = true
				delete(set, sub)
				if len(set) == 0 {
					delete(h.topics, t)
				}
			}
		}
	}
	h.mu.Unlock()
	if removed {
		h.subCount.Add(-1)
	}
}

// Close shuts the hub down, closing every subscription.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make(map[*Subscription]struct{})
	for _, set := range h.topics {
		for sub := range set {
			subs[sub] = struct{}{}
		}
	}
	h.topics = make(map[string]map[*Subscription]struct{})
	h.mu.Unlock()
	for sub := range subs {
		sub.closeWith(ErrHubClosed)
		h.subCount.Add(-1)
	}
}

// Snapshot returns the hub's instrumentation counters.
func (h *Hub) Snapshot() Stats {
	lat := h.latency.Snapshot()
	return Stats{
		Subscribers:  h.subCount.Load(),
		TotalSubs:    h.totSubs.Load(),
		Published:    h.published.Value(),
		Fanned:       h.fanned.Value(),
		Dropped:      h.dropped.Value(),
		Conflated:    h.conflated.Value(),
		Disconnected: h.discon.Load(),
		FanoutP99:    lat.P99,
		FanoutMean:   lat.Mean,
	}
}
