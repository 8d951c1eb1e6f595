// Package pipeline wires the paper's Figure 2 architecture: streaming
// AIS records are consumed from the embedded broker by ingestion
// workers and routed to one vessel actor per MMSI; vessel actors hold
// per-vessel history, run the shared S-VRF model, detect AIS
// switch-offs and fan their positions and forecasts out to cell actors
// (close-proximity detection, grid size M) and collision actors
// (collision forecasting, grid size K) keyed by hexgrid cell; all actor
// outputs flow to one writer actor that persists state into the
// kvstore middleware and the read-side views, from which the HTTP API
// serves the UI.
package pipeline

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/checkpoint"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/kvstore"
	"seatwin/internal/lvrf"
	"seatwin/internal/metrics"
	"seatwin/internal/retry"
	"seatwin/internal/views"
)

// Config assembles a Pipeline.
type Config struct {
	// Forecaster is the route forecasting model shared by all vessel
	// actors (the paper mounts one S-VRF instance per process). It must
	// be safe for concurrent use.
	Forecaster events.TrackForecaster
	// Collision, Proximity and SwitchOff parameterise the detectors.
	Collision events.CollisionConfig
	Proximity events.ProximityConfig
	SwitchOff events.SwitchOffConfig
	// Store receives the persisted actor states; nil creates one.
	Store *kvstore.Store
	// Ports, when non-empty, enables port-congestion monitoring and
	// prediction over the vessel positions and forecasts (§7 extension;
	// see internal/congestion).
	Ports []congestion.Port
	// RouteModel, when non-nil, serves long-term route forecasts and
	// Patterns of Life over the API (§4.1's L-VRF, integrated "through
	// API calls" per the paper).
	RouteModel *lvrf.Model
	// Feed, when non-nil, receives every vessel state and event for
	// live fan-out to push subscribers (SSE / TCP feed): the writer
	// actor publishes into the hub directly (see internal/feed).
	Feed *feed.Hub
	// Views is the read-side serving layer: the writer actor publishes
	// every vessel state and event into it, and the API serves
	// /api/vessels, /api/events, /api/regions and /api/congestion from
	// its epoch-swapped snapshots (see internal/views). The pipeline
	// wires the congestion monitor in as the views' congestion source
	// when Ports is also set. A caller-provided Views stays the caller's
	// (Close it after Shutdown); nil makes the pipeline build one with
	// views.Config defaults and close it in Shutdown.
	Views *views.Views
	// CheckpointInterval is how many accepted reports a vessel actor
	// processes between history checkpoints into the store (0 = 16;
	// negative = checkpointing and rehydration disabled). Actors also
	// checkpoint once on Stopping, so a clean Shutdown persists every
	// live window regardless of the interval.
	CheckpointInterval int
	// Chaos, when non-nil, injects faults into the pipeline's store
	// writes and the forecaster (see internal/chaos). The API's read
	// side stays fault-free so operators can always observe the run.
	Chaos *chaos.Injector
	// Cluster, when non-nil, runs this pipeline as one worker of a
	// partitioned cluster: keys it does not own are forwarded onto the
	// owning partition's broker topic instead of being processed
	// locally (see cluster.go). Nil keeps the single-process fast path
	// byte-for-byte unchanged.
	Cluster *ClusterConfig

	// Seams for this package's tests, whose zero values are the
	// production settings: cellIdle overrides cellIdleTimeout, and retry
	// the retry.DefaultPolicy() backoff around store writes and the
	// broker consume round.
	cellIdle time.Duration
	retry    retry.Policy
}

// The grid sizes of the paper's §3 and the vessel history bound.
const (
	// proximityResolution is the hexgrid resolution of the cell actors
	// (grid "M" in §3): ~1.1 km cells for 500 m proximity.
	proximityResolution = 9
	// collisionResolution is that of the collision actors ("K"): ~4.5 km
	// cells for 30-minute forecasts.
	collisionResolution = 7
	// historyLimit bounds the reports retained per vessel actor; it
	// covers the model's input requirement with margin.
	historyLimit = 48
	// cellIdleTimeout passivates a cell actor that has received no
	// traffic for this long of wall-clock time, bounding the actor
	// population to the active sea areas.
	cellIdleTimeout = 5 * time.Minute
)

// DefaultConfig returns the paper's deployment shape.
func DefaultConfig(fc events.TrackForecaster) Config {
	return Config{
		Forecaster: fc,
		Collision:  events.DefaultCollisionConfig(),
		Proximity:  events.DefaultProximityConfig(),
		SwitchOff:  events.DefaultSwitchOffConfig(),
	}
}

// stateStore is the write surface the pipeline persists through. It is
// the raw *kvstore.Store unless Config.Chaos is set, in which case the
// chaos wrapper injects faults on this path while API reads keep going
// to the raw store (so "no lost committed state" stays checkable).
type stateStore interface {
	HSetFields(key string, fields []kvstore.Field) (int, error)
	HGetAll(key string) (map[string]string, error)
	ZAdd(key string, score float64, member string) (bool, error)
	Publish(channel, payload string) int
	Del(keys ...string) int
}

// Pipeline is a running instance of the system.
type Pipeline struct {
	cfg    Config
	system *actor.System
	store  *kvstore.Store
	kv     stateStore // fault-injectable write path over store
	views  *views.Views
	retryP retry.Policy
	log    *events.Log

	// writer is the one writer actor every state, event and checkpoint
	// leaves through (Figure 2).
	writer *actor.PID

	// props holds each actor kind's Props, built once in New so an
	// actor lookup builds no closure.
	props [actor.Kinds]*actor.Props

	statics sync.Map // ais.MMSI -> ais.StaticVoyage, the shared cache

	// routeModel is the serving L-VRF model behind /api/route, seeded
	// from Config.RouteModel and hot-swappable at runtime: the lifecycle
	// trainer publishes a freshly rebuilt lane graph with SetRouteModel
	// and in-flight requests keep the model they loaded.
	routeModel atomic.Pointer[lvrf.Model]

	// The per-message observability path is striped: vessel actors record
	// into per-shard slots keyed by MMSI, so no global lock is taken while
	// processing a message.
	latency  *metrics.ShardedLatencyRecorder // vessel-actor processing time
	inferLat *metrics.ShardedLatencyRecorder // model-inference slice of processing

	messages  *metrics.ShardedCounter
	forecasts *metrics.ShardedCounter
	vessels   int64 // distinct vessel actors spawned (paper's x-axis)
	ingested  int64 // messages accepted by Ingest (Drain's idle test)
	closed    int32

	// Durability counters (seatwin_retry_* / seatwin_checkpoint_*).
	retryAttempts  *metrics.ShardedCounter // total tries across retried ops
	retryRetried   *metrics.ShardedCounter // ops that succeeded after >=1 retry
	retryExhausted *metrics.ShardedCounter // ops dropped to degraded mode
	ckptSaves      *metrics.ShardedCounter // checkpoints written
	ckptRestores   *metrics.ShardedCounter // vessel windows rehydrated on spawn
	ckptFailures   *metrics.ShardedCounter // saves/loads lost after retries

	// Event-detection observability (seatwin_events_*): per-family
	// update timing, candidate funnel and tracked-entry occupancy,
	// maintained by the cell actors from their detectors' cumulative
	// stats (delta-pushed, so the actors stay lock-free).
	proxDet detectorMetrics
	collDet detectorMetrics

	// congestion is non-nil when Config.Ports was set.
	congestion *congestion.Monitor

	// cl is the cluster worker runtime (nil in single-process mode —
	// every ownership check on the hot path is then one nil compare).
	cl *clusterState
}

// detectorMetrics is one detector family's observability surface: the
// per-update latency summary, the candidate-pair funnel (candidates
// surviving the spatial probe, pairs fully checked, entries evicted)
// and the live tracked-entry occupancy across every cell of the
// family. All sharded — the single-threaded spatial actors push deltas
// keyed by MMSI without contending.
type detectorMetrics struct {
	updateLat  *metrics.ShardedLatencyRecorder
	candidates *metrics.ShardedCounter
	deferred   *metrics.ShardedCounter
	checked    *metrics.ShardedCounter
	evictions  *metrics.ShardedCounter
	tracked    *metrics.ShardedCounter // gauge: Size() deltas, decremented on passivation
}

func newDetectorMetrics() detectorMetrics {
	return detectorMetrics{
		updateLat:  metrics.NewShardedLatencyRecorder(0),
		candidates: metrics.NewShardedCounter(0),
		deferred:   metrics.NewShardedCounter(0),
		checked:    metrics.NewShardedCounter(0),
		evictions:  metrics.NewShardedCounter(0),
		tracked:    metrics.NewShardedCounter(0),
	}
}

// DetectionStats is one detector family's snapshot in Stats.
type DetectionStats struct {
	UpdateLatency metrics.Snapshot
	Candidates    int64
	Deferred      int64
	Checked       int64
	Evicted       int64
	Tracked       int64
}

func (m *detectorMetrics) snapshot() DetectionStats {
	return DetectionStats{
		UpdateLatency: m.updateLat.Snapshot(),
		Candidates:    m.candidates.Value(),
		Deferred:      m.deferred.Value(),
		Checked:       m.checked.Value(),
		Evicted:       m.evictions.Value(),
		Tracked:       m.tracked.Value(),
	}
}

// Congestion returns the port-congestion monitor, or nil when port
// monitoring is not configured.
func (p *Pipeline) Congestion() *congestion.Monitor { return p.congestion }

// New builds and starts the actor topology (the writer only; vessel and
// cell actors materialise on first contact).
func New(cfg Config) (_ *Pipeline, err error) {
	if cfg.Forecaster == nil {
		return nil, fmt.Errorf("pipeline: a forecaster is required")
	}
	if err := cfg.Collision.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.Chaos != nil {
		// The shared forecaster is wrapped here so vessel actors exercise
		// refused forecasts and supervision restarts under chaos.
		cfg.Forecaster = chaos.WrapForecaster(cfg.Forecaster, cfg.Chaos)
	}
	store := cfg.Store
	if store == nil {
		store = kvstore.New()
	}
	vw := cfg.Views
	if vw == nil {
		vw = views.New(views.Config{})
		defer func() {
			if err != nil {
				vw.Close() // stop the refresher of views no caller will close
			}
		}()
	}
	p := &Pipeline{
		cfg:       cfg,
		system:    actor.NewSystem("seatwin"),
		store:     store,
		views:     vw,
		log:       events.NewLog(1 << 14),
		latency:   metrics.NewShardedLatencyRecorder(0),
		inferLat:  metrics.NewShardedLatencyRecorder(0),
		messages:  metrics.NewShardedCounter(0),
		forecasts: metrics.NewShardedCounter(0),

		retryAttempts:  metrics.NewShardedCounter(0),
		retryRetried:   metrics.NewShardedCounter(0),
		retryExhausted: metrics.NewShardedCounter(0),
		ckptSaves:      metrics.NewShardedCounter(0),
		ckptRestores:   metrics.NewShardedCounter(0),
		ckptFailures:   metrics.NewShardedCounter(0),

		proxDet: newDetectorMetrics(),
		collDet: newDetectorMetrics(),
	}
	p.kv = store
	if cfg.Chaos != nil {
		p.kv = chaos.WrapKV(store, cfg.Chaos)
	}
	p.retryP = cfg.retry
	if p.retryP.IsZero() {
		p.retryP = retry.DefaultPolicy()
	}
	if cfg.RouteModel != nil {
		p.routeModel.Store(cfg.RouteModel)
	}
	idle := cfg.cellIdle
	if idle == 0 {
		idle = cellIdleTimeout
	}
	if len(cfg.Ports) > 0 {
		p.congestion = congestion.NewMonitor(cfg.Ports, 0)
	}
	if p.congestion != nil {
		mon := p.congestion
		vw.SetCongestionSource(func() []congestion.Status {
			return mon.Snapshot(time.Time{}) // zero = newest observed (sim time)
		})
	}
	p.props = [actor.Kinds]*actor.Props{
		kindVessel: actor.PropsFromProducer(func(k actor.Key) actor.Actor {
			return newVesselActor(p, ais.MMSI(k.ID))
		}),
		kindProximity: actor.PropsFromProducer(func(actor.Key) actor.Actor {
			return &cellActor{
				p:          p,
				prox:       events.NewGridProximityDetector(p.cfg.Proximity),
				m:          &p.proxDet,
				passivator: passivator{timeout: idle},
			}
		}),
		kindCollision: actor.PropsFromProducer(func(k actor.Key) actor.Actor {
			d := events.NewGridDetector(p.cfg.Collision, 10*time.Minute)
			d.SetCell(k.ID)
			return &cellActor{
				p:          p,
				coll:       d,
				m:          &p.collDet,
				passivator: passivator{timeout: idle},
			}
		}),
		kindWriter: actor.PropsFromProducer(func(actor.Key) actor.Actor { return &writerActor{p: p} }),
	}
	// The writer is registered (ID 0) like every other actor, so
	// QueuedMessages and Shutdown, and with them Drain, see it.
	p.writer = p.actorOf(kindWriter, 0)
	if cfg.Cluster != nil {
		cl, err := newClusterState(p, *cfg.Cluster)
		if err != nil {
			return nil, err
		}
		p.cl = cl
		if err := cl.start(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// System exposes the actor system (introspection and tests).
func (p *Pipeline) System() *actor.System { return p.system }

// Store exposes the middleware state store.
func (p *Pipeline) Store() *kvstore.Store { return p.store }

// EventLog exposes the in-memory event list (the UI's Figure 4f feed).
func (p *Pipeline) EventLog() *events.Log { return p.log }

// ckptInterval resolves the checkpoint cadence: reports between
// snapshots, or 0 when checkpointing is disabled.
func (p *Pipeline) ckptInterval() int {
	switch {
	case p.cfg.CheckpointInterval < 0:
		return 0
	case p.cfg.CheckpointInterval == 0:
		return 16
	default:
		return p.cfg.CheckpointInterval
	}
}

// retryDo runs op under the pipeline's retry policy, recording the
// per-outcome seatwin_retry_* counters on the shard selected by hint.
// It returns false when attempts were exhausted — the caller drops to
// degraded mode (skip the write, keep ingesting) rather than blocking.
func (p *Pipeline) retryDo(hint uint64, op func() error) bool {
	res := p.retryP.Do(op)
	p.retryAttempts.Inc(hint, int64(res.Attempts))
	if res.Err != nil {
		p.retryExhausted.Inc(hint, 1)
		return false
	}
	if res.Retried() {
		p.retryRetried.Inc(hint, 1)
	}
	return true
}

// checkpointStale reports whether the store already holds a checkpoint
// for key at least as new as a window ending at lastTS. Only consulted
// in cluster mode, where two workers can briefly both hold a moved
// vessel: the old owner's late passivation snapshot must not clobber
// the new owner's fresher one. The read goes to the raw store (the
// fault-free side), and any unreadable value fails open — a write the
// retry layer already tolerates losing.
func (p *Pipeline) checkpointStale(key string, lastTS time.Time) bool {
	if p.cl == nil {
		return false
	}
	v, ok, err := p.store.HGet(key, "last_ts")
	if err != nil || !ok {
		return false
	}
	existing, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return false
	}
	return existing >= lastTS.UnixNano()
}

// saveCheckpointFields persists one vessel's history window under key
// through the (possibly chaos-wrapped) store, with retries; an
// exhausted save is counted as a checkpoint failure and dropped — the
// previous checkpoint, if any, stays in place. The writer actor passes
// its reused encoder and a cached key, so a periodic save costs one
// string conversion per snapshot instead of one per report field.
func (p *Pipeline) saveCheckpointFields(key string, mmsi ais.MMSI, reports []ais.PositionReport, enc *checkpoint.Encoder) {
	if len(reports) > 0 && p.checkpointStale(key, reports[len(reports)-1].Timestamp) {
		return
	}
	hint := uint64(mmsi)
	s := checkpoint.Snapshot{MMSI: mmsi, Reports: reports}
	if p.retryDo(hint, func() error {
		_, err := p.kv.HSetFields(key, enc.Fields(s))
		return err
	}) {
		p.ckptSaves.Inc(hint, 1)
	} else {
		p.ckptFailures.Inc(hint, 1)
	}
}

// loadCheckpoint rehydrates one vessel's history window, bounded by
// historyLimit. ok is false when there is no usable checkpoint — a
// corrupt or unreadable one degrades to a cold start and is counted.
func (p *Pipeline) loadCheckpoint(mmsi ais.MMSI) ([]ais.PositionReport, bool) {
	hint := uint64(mmsi)
	var snap checkpoint.Snapshot
	var found bool
	if !p.retryDo(hint, func() error {
		var err error
		snap, found, err = checkpoint.Load(p.kv, mmsi)
		return err
	}) {
		p.ckptFailures.Inc(hint, 1)
		return nil, false
	}
	if !found || len(snap.Reports) == 0 {
		return nil, false
	}
	reports := snap.Reports
	if len(reports) > historyLimit {
		reports = reports[len(reports)-historyLimit:]
	}
	p.ckptRestores.Inc(hint, 1)
	return reports, true
}

// Ingest routes one decoded AIS message into the pipeline: the entry
// point used by direct feeds.
func (p *Pipeline) Ingest(msg ais.Message) {
	if atomic.LoadInt32(&p.closed) == 1 {
		return
	}
	switch msg.(type) {
	case ais.StaticVoyage, ais.PositionReport:
		p.route(kindVessel, uint64(msg.Source()), msg)
	}
}

// route is the one place that chooses where a keyed message goes: the
// actor of kind serving entity id on this worker when the worker owns
// id, otherwise the forward topic of id's owning partition.
func (p *Pipeline) route(kind uint8, id uint64, msg any) {
	if !p.OwnsKey(id) {
		p.cl.forward(id, Forwarded{Kind: kind, ID: id, Msg: msg})
		return
	}
	p.deliver(kind, id, msg)
}

// deliver hands msg to this worker's actor of kind serving entity id:
// the one local handoff, for locally ingested and forwarded messages
// alike.
func (p *Pipeline) deliver(kind uint8, id uint64, msg any) {
	switch m := msg.(type) {
	case ais.PositionReport:
		p.messages.Inc(id, 1)
	case ais.StaticVoyage:
		// Static info is cached in shared memory at ingestion, available
		// to every actor without a message round-trip (§3). Class B
		// type 24 messages arrive as partial documents (part A: name;
		// part B: dimensions), so new fields merge into the cache.
		if prev, ok := p.statics.Load(m.MMSI); ok {
			m = mergeStatic(prev.(ais.StaticVoyage), m)
		}
		p.statics.Store(m.MMSI, m)
		msg = m
	}
	if kind == kindVessel {
		atomic.AddInt64(&p.ingested, 1)
	}
	p.system.Send(p.actorOf(kind, id), msg)
}

// mergeStatic folds a possibly-partial static document (a type 24
// part) into the previously cached one: non-zero incoming fields win.
func mergeStatic(prev, next ais.StaticVoyage) ais.StaticVoyage {
	out := prev
	if next.Name != "" {
		out.Name = next.Name
	}
	if next.Callsign != "" {
		out.Callsign = next.Callsign
	}
	if next.IMO != 0 {
		out.IMO = next.IMO
	}
	if next.ShipType != 0 {
		out.ShipType = next.ShipType
	}
	if next.DimBow != 0 || next.DimStern != 0 {
		out.DimBow, out.DimStern = next.DimBow, next.DimStern
	}
	if next.DimPort != 0 || next.DimStarb != 0 {
		out.DimPort, out.DimStarb = next.DimPort, next.DimStarb
	}
	if next.Draught != 0 {
		out.Draught = next.Draught
	}
	if next.Destination != "" {
		out.Destination = next.Destination
	}
	return out
}

// batchGroup collects one vessel's messages within a batch so the
// mailbox lock and the scheduling decision are paid once per vessel per
// round instead of once per report.
type batchGroup struct {
	pid  *actor.PID
	msgs []any
}

// ingestBatcher is the reusable scratch state of IngestBatch: an
// MMSI->group index plus the group list itself. Pooled — steady-state
// batch ingestion allocates nothing for the grouping.
type ingestBatcher struct {
	index  map[ais.MMSI]int
	groups []batchGroup
}

var batcherPool = sync.Pool{
	New: func() any {
		return &ingestBatcher{index: make(map[ais.MMSI]int, 64)}
	},
}

// group returns the batch group of mmsi, creating (and route-resolving)
// it on first sight within the batch.
func (b *ingestBatcher) group(p *Pipeline, mmsi ais.MMSI) *batchGroup {
	if gi, ok := b.index[mmsi]; ok {
		return &b.groups[gi]
	}
	gi := len(b.groups)
	if gi < cap(b.groups) {
		b.groups = b.groups[:gi+1]
		b.groups[gi].pid = p.vesselActor(mmsi)
	} else {
		b.groups = append(b.groups, batchGroup{pid: p.vesselActor(mmsi)})
	}
	b.index[mmsi] = gi
	return &b.groups[gi]
}

// release clears message references (they are owned by mailboxes now)
// and returns the batcher to the pool.
func (b *ingestBatcher) release() {
	for i := range b.groups {
		g := &b.groups[i]
		g.pid = nil
		for j := range g.msgs {
			g.msgs[j] = nil
		}
		g.msgs = g.msgs[:0]
	}
	b.groups = b.groups[:0]
	clear(b.index)
	batcherPool.Put(b)
}

// IngestBatch routes one poll's worth of broker records carrying
// ais.Message values into the pipeline. Owned position reports are
// grouped by MMSI and each vessel's group is delivered as one mailbox
// push (see actor.System.SendBatch). Per-vessel order is preserved;
// cross-vessel order was never observable (distinct actors). Static
// voyage documents are rare and, like foreign reports, take route.
// Returns how many messages were accepted.
func (p *Pipeline) IngestBatch(recs []broker.Record) int {
	if atomic.LoadInt32(&p.closed) == 1 || len(recs) == 0 {
		return 0
	}
	b := batcherPool.Get().(*ingestBatcher)
	n := 0
	for i := range recs {
		switch m := recs[i].Value.(type) {
		case ais.StaticVoyage:
			p.route(kindVessel, uint64(m.MMSI), m)
		case ais.PositionReport:
			// The record's own box is handed on: a report is boxed once,
			// by the broker, on its way to the vessel actor.
			if p.OwnsKey(uint64(m.MMSI)) {
				p.messages.Inc(uint64(m.MMSI), 1)
				atomic.AddInt64(&p.ingested, 1)
				g := b.group(p, m.MMSI)
				g.msgs = append(g.msgs, recs[i].Value)
			} else {
				// Foreign reports are accepted into the cluster (counted
				// in n) but processed by their owner, so they skip the
				// local batching entirely.
				p.route(kindVessel, uint64(m.MMSI), recs[i].Value)
			}
		default:
			continue
		}
		n++
	}
	for i := range b.groups {
		g := &b.groups[i]
		if len(g.msgs) > 0 {
			p.system.SendBatch(g.pid, g.msgs)
		}
	}
	b.release()
	return n
}

// Actor kinds: each entity family has its own registry table, keyed by
// the entity itself (MMSI, hexgrid cell; the one writer is ID 0).
const (
	kindVessel uint8 = iota
	kindProximity
	kindCollision
	kindWriter
)

// actorOf returns (spawning on first contact) the actor serving entity
// id of the given kind. A warm lookup allocates nothing.
func (p *Pipeline) actorOf(kind uint8, id uint64) *actor.PID {
	pid, spawned := p.system.GetOrSpawn(actor.Key{Kind: kind, ID: id}, p.props[kind])
	if spawned && kind == kindVessel {
		atomic.AddInt64(&p.vessels, 1)
	}
	return pid
}

// vesselActor returns the actor of a MMSI.
func (p *Pipeline) vesselActor(mmsi ais.MMSI) *actor.PID {
	return p.actorOf(kindVessel, uint64(mmsi))
}

// Static returns the cached static voyage data of a vessel.
func (p *Pipeline) Static(mmsi ais.MMSI) (ais.StaticVoyage, bool) {
	v, ok := p.statics.Load(mmsi)
	if !ok {
		return ais.StaticVoyage{}, false
	}
	return v.(ais.StaticVoyage), true
}

// Stats summarises a running pipeline.
type Stats struct {
	Messages   int64
	Forecasts  int64
	LiveActors int64
	Latency    metrics.Snapshot
	// InferLatency is the model-inference slice of Latency: the time
	// vessel actors spend inside ForecastTrack for forecasts that
	// actually ran the model.
	InferLatency metrics.Snapshot
	Events       int64
	DeadLetter   uint64
	// Durability counters: the retry loop's per-outcome totals and the
	// checkpoint lifecycle (see DESIGN.md §9).
	RetryAttempts      int64
	RetryRetried       int64
	RetryExhausted     int64
	CheckpointSaves    int64
	CheckpointRestores int64
	CheckpointFailures int64
	// ProximityDetection and CollisionDetection are the event-detection
	// layer's per-family telemetry: detector update timing, the
	// candidate-pair funnel and live tracked-entry occupancy across all
	// cells (see DESIGN.md §16).
	ProximityDetection DetectionStats
	CollisionDetection DetectionStats
	// Cluster is the worker's cluster counters, nil in single-process
	// mode.
	Cluster *ClusterStats
	// Train is the process-wide training recorder snapshot: non-zero
	// only in processes that have trained (or retrained) a model.
	Train metrics.TrainStats
	// Lifecycle is the process-wide model-lifecycle snapshot: non-zero
	// only in processes running the background trainer.
	Lifecycle metrics.LifecycleStats
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Messages:     p.messages.Value(),
		Forecasts:    p.forecasts.Value(),
		LiveActors:   p.system.LiveActors(),
		Latency:      p.latency.Snapshot(),
		InferLatency: p.inferLat.Snapshot(),
		Events:       p.log.Total(),
		DeadLetter:   p.system.StatsSnapshot().DeadLetters,

		RetryAttempts:      p.retryAttempts.Value(),
		RetryRetried:       p.retryRetried.Value(),
		RetryExhausted:     p.retryExhausted.Value(),
		CheckpointSaves:    p.ckptSaves.Value(),
		CheckpointRestores: p.ckptRestores.Value(),
		CheckpointFailures: p.ckptFailures.Value(),
		ProximityDetection: p.proxDet.snapshot(),
		CollisionDetection: p.collDet.snapshot(),
		Cluster:            p.clusterStats(),
		Train:              metrics.Training.Snapshot(),
		Lifecycle:          metrics.Lifecycle.Snapshot(),
	}
}

// RouteModel returns the L-VRF model currently serving /api/route (nil
// when none is configured or published yet).
func (p *Pipeline) RouteModel() *lvrf.Model { return p.routeModel.Load() }

// SetRouteModel atomically replaces the serving L-VRF model — the
// lifecycle trainer's lane-graph hot-swap. In-flight requests keep the
// model they already loaded.
func (p *Pipeline) SetRouteModel(m *lvrf.Model) { p.routeModel.Store(m) }

// RecordConsumer is the consumer surface ConsumeLoop drains: both
// *broker.Consumer and the chaos fault-injection wrapper satisfy it.
type RecordConsumer interface {
	Poll(max int, wait time.Duration) []broker.Record
	Commit()
}

// ConsumeLoop drains a broker consumer into the pipeline until a poll
// returns nil or the pipeline shuts down. A broker consumer's Poll
// returns nil in two cases: the consumer was closed, or pollWait passed
// with no record arriving. A short pollWait therefore also ends the
// loop once the topic goes quiet; a caller that must outlast idle gaps
// passes a long one and closes the consumer to stop the loop. Records
// must carry ais.Message values. A panic out of the consume round (an
// injected chaos fault, or a genuinely broken consumer) is recovered
// and retried with the pipeline's backoff policy, and empty batches
// back off the same way, so a faulting broker degrades ingest instead
// of wedging or spinning it. Because faulted rounds never commit, every
// record is redelivered once the fault clears (at-least-once).
func (p *Pipeline) ConsumeLoop(c RecordConsumer, pollWait time.Duration) int {
	n := 0
	faults := 0
	for atomic.LoadInt32(&p.closed) == 0 {
		got, closed, err := p.consumeRound(c, pollWait)
		n += got
		if closed {
			return n
		}
		if err != nil || got == 0 {
			if err != nil {
				// A recovered panic is one failed attempt of the (endless)
				// consume operation; it is retried, never exhausted.
				p.retryAttempts.Inc(uint64(faults), 1)
			}
			if faults < 10 {
				faults++
			}
			time.Sleep(p.retryP.Delay(faults))
			continue
		}
		faults = 0
	}
	return n
}

// consumeRound runs one poll/ingest/commit round, converting a panic
// into an error so the loop above can back off and retry. The round
// hands the poll to IngestBatch, so each vessel's reports in the poll
// cost one mailbox push instead of one per report. Commit still only
// runs after the whole batch was enqueued (at-least-once is untouched:
// a faulted round never commits and redelivers).
func (p *Pipeline) consumeRound(c RecordConsumer, pollWait time.Duration) (ingested int, closed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: consume round panicked: %v", r)
		}
	}()
	recs := c.Poll(512, pollWait)
	if recs == nil {
		return ingested, true, nil
	}
	ingested = p.IngestBatch(recs)
	c.Commit()
	return ingested, false, nil
}

// Drain waits until the actor system has processed everything enqueued
// so far, up to timeout. Quiescence requires both that the processed
// counter stops moving AND that no mailbox still holds queued messages:
// a stalled-but-backlogged system (e.g. one slow forecaster with a deep
// mailbox) must not be declared drained just because throughput paused.
// A pipeline that never ingested anything is already drained and
// returns immediately; once something was ingested, the processed
// counter must have moved off zero before quiescence counts, so a
// just-popped in-flight first message cannot fake an idle system.
//
// In cluster mode, quiescence additionally requires the forward queue
// to be empty: a report accepted for a foreign partition is in flight
// until the forwarding producer has written it to the broker, even
// though no local mailbox holds it. (What the remote owner does with
// it is its own Drain's business.)
func (p *Pipeline) Drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	var last uint64
	for time.Now().Before(deadline) {
		cur := p.system.StatsSnapshot().MessagesProcessed
		idle := atomic.LoadInt64(&p.ingested) == 0
		if cur == last && (cur > 0 || idle) &&
			p.system.QueuedMessages() == 0 && p.pendingForwards() == 0 {
			return
		}
		last = cur
		time.Sleep(20 * time.Millisecond)
	}
}

// Shutdown stops the actor system. In cluster mode the worker's
// inbound consumers stop first (no new foreign records land mid-stop),
// the actors drain — any fan-out they still forward is flushed by the
// forwarder — and the worker then leaves the cluster so its partitions
// reassign immediately.
func (p *Pipeline) Shutdown(timeout time.Duration) {
	if !atomic.CompareAndSwapInt32(&p.closed, 0, 1) {
		return
	}
	if p.cl != nil {
		p.cl.closeConsumers()
	}
	p.system.Shutdown(timeout)
	if p.cl != nil {
		p.cl.shutdown()
	}
	if p.cfg.Store == nil {
		p.store.Close()
	}
	if p.cfg.Views == nil {
		p.views.Close()
	}
}
