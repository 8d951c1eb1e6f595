// Package views is the read-side serving layer of the middleware: a set
// of materialized views refreshed from the write path and published as
// immutable, epoch-numbered snapshots that readers grab with one atomic
// load.
//
// The write side (the pipeline's writer actors) pushes every vessel
// state and event delta into per-view staging (ApplyState/ApplyEvent);
// a background refresher periodically folds the staging into four
// pre-encoded snapshots — the world vessel list, per-hex-cell region
// summaries, the recent-events window and the port-congestion rollup —
// and swaps each in atomically with a new epoch. Serving a request is
// then one atomic pointer load plus writes of pre-encoded JSON: no
// locks, no kvstore reads, and no per-request allocations (the PR3/PR5
// zero-alloc playbook applied to the read path). Views are a serving
// cache, not a store: the kvstore keeps the durable per-vessel state.
//
// The shape follows Amariei et al.'s cell-grid architecture
// (1810.00090): aggregates are pre-materialized per cell on the write
// path so the read path never computes them per request.
package views

import (
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/metrics"
)

// Config assembles a Views registry.
type Config struct {
	// RegionResolution is the hexgrid resolution of the per-cell region
	// summaries (<=0 selects 7, ~4.5 km cells — the collision grid "K").
	RegionResolution int
	// EventWindow bounds the recent-events view (<=0 selects 512).
	EventWindow int
	// RefreshInterval is the background refresh cadence (0 selects
	// 100ms; negative disables the background refresher — tests and
	// embedders then drive Refresh themselves).
	RefreshInterval time.Duration
	// DefaultLimit is how many newest vessels the pre-concatenated
	// default /api/vessels body covers (<=0 selects 100). Requests at
	// the default limit with no filter are served with a single Write.
	DefaultLimit int
	// ExpireAfter drops vessels whose last report is older than this
	// relative to the newest report seen (0 = keep forever). Feeds that
	// replay or simulate time want the relative form; it makes the view
	// population track the active fleet, not the all-time one.
	ExpireAfter time.Duration
}

// VesselState is one vessel state delta entering the world view — the
// writer actor's document, mirroring what it persists into the kvstore.
type VesselState struct {
	MMSI     ais.MMSI
	Name     string
	Lat, Lon float64
	SOG, COG float64
	Status   string
	TS       time.Time
	Forecast []events.ForecastPoint
}

// stateShardCount stripes the vessel staging map (power of two): writer
// actors apply concurrently and only contend within a stripe.
const stateShardCount = 16

// vesselEntry is one vessel's staged state. enc is the entry's
// pre-encoded JSON document; nil marks it dirty (re-encoded by the next
// refresh into a fresh immutable buffer, so snapshots taken earlier
// keep their bytes).
type vesselEntry struct {
	state VesselState
	cell  hexgrid.Cell // at the region resolution, computed on apply
	enc   []byte
}

// stateShard is one stripe of the staging map.
type stateShard struct {
	mu      sync.Mutex
	entries map[ais.MMSI]*vesselEntry
	_       [40]byte
}

// Views maintains the materialized views and their current snapshots.
// ApplyState/ApplyEvent are safe for concurrent use (the write path);
// the snapshot accessors are lock-free (the read path).
type Views struct {
	cfg Config

	shards [stateShardCount]stateShard

	evMu    sync.Mutex
	evRing  [][]byte // encoded event docs, ring of cfg.EventWindow
	evStart int
	evCount int

	// congestionSource, when set, feeds the congestion rollup view
	// (guarded by refreshMu: set before the first refresh).
	congestionSource func() []congestion.Status

	epoch    atomic.Uint64
	vessels  atomic.Pointer[VesselSnapshot]
	regions  atomic.Pointer[RegionSnapshot]
	events   atomic.Pointer[EventSnapshot]
	congSnap atomic.Pointer[CongestionSnapshot]

	// refreshMu serialises refreshes (the background loop and any
	// manual Refresh callers); lastSwap is the wall-clock time of the
	// last completed refresh (the epoch-age gauge).
	refreshMu sync.Mutex
	lastSwap  atomic.Int64 // unix nanos

	statesApplied *metrics.ShardedCounter
	eventsApplied *metrics.ShardedCounter
	refreshes     atomic.Int64
	refreshLat    *metrics.ShardedLatencyRecorder

	// Refresh scratch, reused across refreshes (single-threaded under
	// refreshMu). Snapshots never reference scratch memory.
	itemScratch []VesselItem
	regionAgg   map[hexgrid.Cell]*regionAggregate

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New builds the registry and starts the background refresher (unless
// RefreshInterval is negative). Close stops it.
func New(cfg Config) *Views {
	if cfg.RegionResolution <= 0 || cfg.RegionResolution > hexgrid.MaxResolution {
		cfg.RegionResolution = 7
	}
	if cfg.EventWindow <= 0 {
		cfg.EventWindow = 512
	}
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 100 * time.Millisecond
	}
	if cfg.DefaultLimit <= 0 {
		cfg.DefaultLimit = 100
	}
	v := &Views{
		cfg:           cfg,
		evRing:        make([][]byte, cfg.EventWindow),
		statesApplied: metrics.NewShardedCounter(0),
		eventsApplied: metrics.NewShardedCounter(0),
		refreshLat:    metrics.NewShardedLatencyRecorder(0),
		regionAgg:     make(map[hexgrid.Cell]*regionAggregate, 256),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	for i := range v.shards {
		v.shards[i].entries = make(map[ais.MMSI]*vesselEntry, 64)
	}
	// Install empty snapshots so readers before the first refresh see a
	// valid (epoch 0) world, never nil.
	v.vessels.Store(emptyVesselSnapshot())
	v.regions.Store(emptyRegionSnapshot())
	v.events.Store(emptyEventSnapshot())
	v.congSnap.Store(emptyCongestionSnapshot())
	if cfg.RefreshInterval > 0 {
		go v.refreshLoop()
	} else {
		close(v.done)
	}
	return v
}

// SetCongestionSource wires the congestion rollup to a status provider
// (the pipeline's monitor). Call before traffic; nil keeps the view
// empty.
func (v *Views) SetCongestionSource(src func() []congestion.Status) {
	v.refreshMu.Lock()
	v.congestionSource = src
	v.refreshMu.Unlock()
}

// Close stops the background refresher. Snapshots stay readable.
func (v *Views) Close() {
	v.closeOnce.Do(func() {
		if v.cfg.RefreshInterval > 0 {
			close(v.stop)
			<-v.done
		}
	})
}

func (v *Views) refreshLoop() {
	defer close(v.done)
	ticker := time.NewTicker(v.cfg.RefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-v.stop:
			return
		case <-ticker.C:
			v.Refresh()
		}
	}
}

// shardFor routes an MMSI to its staging stripe.
func (v *Views) shardFor(m ais.MMSI) *stateShard {
	h := uint64(m)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &v.shards[h&(stateShardCount-1)]
}

// ApplyState stages one vessel state delta. Older-than-staged deltas
// are dropped (cluster handoff can briefly deliver from two writers).
func (v *Views) ApplyState(s VesselState) {
	cell := hexgrid.LatLonToCell(geo.Point{Lat: s.Lat, Lon: s.Lon}, v.cfg.RegionResolution)
	sh := v.shardFor(s.MMSI)
	sh.mu.Lock()
	e, ok := sh.entries[s.MMSI]
	if !ok {
		e = &vesselEntry{}
		sh.entries[s.MMSI] = e
	} else if s.TS.Before(e.state.TS) {
		sh.mu.Unlock()
		return
	}
	e.state = s
	e.cell = cell
	e.enc = nil
	sh.mu.Unlock()
	v.statesApplied.Inc(uint64(s.MMSI), 1)
}

// ApplyEvent stages one event into the recent-events window. Events are
// immutable facts, so the document is encoded once here and the refresh
// only assembles windows.
func (v *Views) ApplyEvent(e events.Event) {
	enc := appendEventJSON(nil, e)
	v.evMu.Lock()
	idx := (v.evStart + v.evCount) % len(v.evRing)
	if v.evCount == len(v.evRing) {
		v.evStart = (v.evStart + 1) % len(v.evRing)
		v.evCount--
	}
	v.evRing[idx] = enc
	v.evCount++
	v.evMu.Unlock()
	v.eventsApplied.Inc(uint64(e.A), 1)
}

// Current snapshot accessors: one atomic load each, safe to retain (a
// snapshot is immutable once published).

// Vessels returns the current world vessel list snapshot.
func (v *Views) Vessels() *VesselSnapshot { return v.vessels.Load() }

// Regions returns the current per-cell region summary snapshot.
func (v *Views) Regions() *RegionSnapshot { return v.regions.Load() }

// Events returns the current recent-events snapshot.
func (v *Views) Events() *EventSnapshot { return v.events.Load() }

// Congestion returns the current congestion rollup snapshot.
func (v *Views) Congestion() *CongestionSnapshot { return v.congSnap.Load() }

// Refresh folds the staging into fresh snapshots and swaps them in,
// returning the new epoch. Any snapshot accessor called after Refresh
// returns observes at least this epoch (the staleness bound).
func (v *Views) Refresh() uint64 {
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	start := time.Now()
	epoch := v.epoch.Add(1)
	builtAt := start

	vs, rs := v.buildVesselAndRegionSnapshots(epoch, builtAt)
	es := v.buildEventSnapshot(epoch, builtAt)
	cs := v.buildCongestionSnapshot(epoch, builtAt)

	v.vessels.Store(vs)
	v.regions.Store(rs)
	v.events.Store(es)
	v.congSnap.Store(cs)

	v.lastSwap.Store(time.Now().UnixNano())
	v.refreshes.Add(1)
	v.refreshLat.Observe(epoch, time.Since(start))
	return epoch
}

// Stats is a snapshot of the registry's instrumentation.
type Stats struct {
	Epoch         uint64
	Refreshes     int64
	StatesApplied int64
	EventsApplied int64
	// EpochAge is how long ago the last refresh completed (0 before the
	// first one).
	EpochAge time.Duration
	// RefreshMean/P99 summarise refresh build+swap latency.
	RefreshMean time.Duration
	RefreshP99  time.Duration
	// SnapshotBytes is the pre-encoded payload held by the current
	// snapshots (vessel docs + region, event and congestion bodies).
	SnapshotBytes int64
	Vessels       int
	Cells         int
	EventsWindow  int
}

// Stats returns the registry's instrumentation counters.
func (v *Views) Stats() Stats {
	lat := v.refreshLat.Snapshot()
	s := Stats{
		Epoch:         v.epoch.Load(),
		Refreshes:     v.refreshes.Load(),
		StatesApplied: v.statesApplied.Value(),
		EventsApplied: v.eventsApplied.Value(),
		RefreshMean:   lat.Mean,
		RefreshP99:    lat.P99,
	}
	if last := v.lastSwap.Load(); last > 0 {
		s.EpochAge = time.Since(time.Unix(0, last))
	}
	vs, rs, es, cs := v.Vessels(), v.Regions(), v.Events(), v.Congestion()
	s.Vessels = len(vs.Items)
	s.Cells = rs.Cells
	s.EventsWindow = len(es.Items)
	s.SnapshotBytes = vs.bytes + int64(len(rs.body)) + es.bytes + int64(len(cs.body))
	return s
}
