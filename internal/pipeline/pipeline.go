// Package pipeline wires the paper's Figure 2 architecture: streaming
// AIS records are consumed from the embedded broker by ingestion
// workers and routed to one vessel actor per MMSI; vessel actors hold
// per-vessel history, run the shared S-VRF model, detect AIS
// switch-offs and fan their positions and forecasts out to cell actors
// (close-proximity detection, grid size M) and collision actors
// (collision forecasting, grid size K) keyed by hexgrid cell; all actor
// outputs flow to writer actors that persist state into the kvstore
// middleware and the read-side views, from which the HTTP API serves
// the UI.
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
	"seatwin/internal/hexgrid"
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
	// ProximityResolution is the hexgrid resolution of the cell actors
	// (grid "M" in §3); CollisionResolution that of the collision
	// actors ("K").
	ProximityResolution int
	CollisionResolution int
	// Collision, Proximity and SwitchOff parameterise the detectors.
	Collision events.CollisionConfig
	Proximity events.ProximityConfig
	SwitchOff events.SwitchOffConfig
	// HistoryLimit bounds the reports retained per vessel actor; it
	// must cover the model's input requirement with margin.
	HistoryLimit int
	// Writers is the number of writer actors (the paper runs one but
	// supports several).
	Writers int
	// Store receives the persisted actor states; nil creates one.
	Store *kvstore.Store
	// DisableEventFanout turns off proximity/collision sharing (used by
	// ablation benches to isolate forecasting cost).
	DisableEventFanout bool
	// Ports, when non-empty, enables port-congestion monitoring and
	// prediction over the vessel positions and forecasts (§7 extension;
	// see internal/congestion).
	Ports []congestion.Port
	// CellIdleTimeout passivates cell and collision actors that have
	// received no traffic for this long, bounding the actor population
	// to the active sea areas (0 = 5 minutes; negative = never).
	CellIdleTimeout time.Duration
	// RouteModel, when non-nil, serves long-term route forecasts and
	// Patterns of Life over the API (§4.1's L-VRF, integrated "through
	// API calls" per the paper).
	RouteModel *lvrf.Model
	// Feed, when non-nil, receives every vessel state and event for
	// live fan-out to push subscribers (SSE / TCP feed): the writer
	// actors publish onto the actor system's EventStream and the hub is
	// attached to it (see internal/feed). For a broker-decoupled
	// deployment attach the hub to the output topics instead with
	// feed.Hub.ConsumeLoop and DecodeFeedRecord.
	Feed *feed.Hub
	// Views is the read-side serving layer: the writer actors publish
	// every vessel state and event into it, and the API serves
	// /api/vessels, /api/events, /api/regions and /api/congestion from
	// its epoch-swapped snapshots (see internal/views). The pipeline
	// wires the congestion monitor in as the views' congestion source
	// when Ports is also set. A caller-provided Views stays the caller's
	// (Close it after Shutdown); nil makes the pipeline build one with
	// views.Config defaults and close it in Shutdown.
	Views *views.Views
	// OutputBroker, when non-nil, receives dedicated output streams —
	// the §7 plan to "leverage Kafka topics to produce streams of
	// dedicated system, model and actor-based outputs": the writer
	// actors produce every event to OutputEventsTopic and every vessel
	// state/forecast to OutputStatesTopic (keyed by MMSI), for external
	// consumers to subscribe to.
	OutputBroker      *broker.Broker
	OutputEventsTopic string
	OutputStatesTopic string
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
	// Retry shapes the backoff loop around store writes and the broker
	// consume round (zero value = retry.DefaultPolicy()).
	Retry retry.Policy
	// Cluster, when non-nil, runs this pipeline as one worker of a
	// partitioned cluster: keys it does not own are forwarded onto the
	// owning partition's broker topic instead of being processed
	// locally (see cluster.go). Nil keeps the single-process fast path
	// byte-for-byte unchanged.
	Cluster *ClusterConfig
}

// DefaultConfig returns the paper's deployment shape.
func DefaultConfig(fc events.TrackForecaster) Config {
	return Config{
		Forecaster:          fc,
		ProximityResolution: 9, // ~1.1 km cells for 500 m proximity
		CollisionResolution: 7, // ~4.5 km cells for 30-minute forecasts
		Collision:           events.DefaultCollisionConfig(),
		Proximity:           events.DefaultProximityConfig(),
		SwitchOff:           events.DefaultSwitchOffConfig(),
		HistoryLimit:        48,
		Writers:             1,
	}
}

// stateStore is the write surface the pipeline persists through. It is
// the raw *kvstore.Store unless Config.Chaos is set, in which case the
// chaos wrapper injects faults on this path while API reads keep going
// to the raw store (so "no lost committed state" stays checkable).
type stateStore interface {
	HSetMulti(key string, fields map[string]string) (int, error)
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

	writers []*actor.PID

	// Route caches: integer entity key -> PID, skipping name building
	// and registry string hashing on the per-report hot path. Entries
	// are invalidated through the actor system's unregister hook (see
	// routecache.go for the correctness model).
	vesselRoutes    *routeCache
	proximityRoutes *routeCache
	collisionRoutes *routeCache

	statics sync.Map // ais.MMSI -> ais.StaticVoyage, the shared cache

	// routeModel is the serving L-VRF model behind /api/route, seeded
	// from Config.RouteModel and hot-swappable at runtime: the lifecycle
	// trainer publishes a freshly rebuilt lane graph with SetRouteModel
	// and in-flight requests keep the model they loaded.
	routeModel atomic.Pointer[lvrf.Model]

	// writerMask routes a vessel to its writer with a power-of-two mask
	// over the mixed MMSI (len(writers) is rounded up to a power of two).
	writerMask uint64

	// The per-message observability path is striped: vessel actors record
	// into per-shard slots keyed by MMSI, so no global lock is taken while
	// processing a message.
	latency  *metrics.ShardedLatencyRecorder // vessel-actor processing time
	inferLat *metrics.ShardedLatencyRecorder // model-inference slice of processing

	messages     *metrics.ShardedCounter
	forecasts    *metrics.ShardedCounter
	badSentences int64
	vessels      int64 // distinct vessel actors spawned (paper's x-axis)
	ingested     int64 // messages accepted by Ingest (Drain's idle test)
	closed       int32

	// Durability counters (seatwin_retry_* / seatwin_checkpoint_*).
	retryAttempts  *metrics.ShardedCounter // total tries across retried ops
	retryRetried   *metrics.ShardedCounter // ops that succeeded after >=1 retry
	retryExhausted *metrics.ShardedCounter // ops dropped to degraded mode
	ckptSaves      *metrics.ShardedCounter // checkpoints written
	ckptRestores   *metrics.ShardedCounter // vessel windows rehydrated on spawn
	ckptFailures   *metrics.ShardedCounter // saves/loads lost after retries

	// Event-detection observability (seatwin_events_*): per-family
	// update timing, candidate funnel and tracked-entry occupancy,
	// maintained by the cell and collision actors from their detectors'
	// cumulative stats (delta-pushed, so the actors stay lock-free).
	proxDet detectorMetrics
	collDet detectorMetrics

	// assembler reassembles multi-fragment AIVDM input for IngestNMEA.
	assembler *ais.Assembler

	// Cooldown of pairwise events across passes: the owner rule emits a
	// collision pair from one cell per pass, but later passes (possibly
	// owned by another cell) repeat it. The seen-map is sharded by key
	// hash so concurrent collision actors only contend when their pairs
	// land in the same stripe.
	pairShards [pairShardCount]pairShard

	// congestion is non-nil when Config.Ports was set.
	congestion *congestion.Monitor

	// feedDetach unsubscribes the live-feed hub from the EventStream on
	// shutdown (nil when Config.Feed was not set).
	feedDetach func()

	// cl is the cluster worker runtime (nil in single-process mode —
	// every ownership check on the hot path is then one nil compare).
	cl *clusterState
}

// pairShardCount stripes the pairwise-event dedup map (power of two).
const pairShardCount = 16

// pairShard is one stripe of the pairwise dedup state.
type pairShard struct {
	mu   sync.Mutex
	seen map[string]time.Time
	_    [48]byte
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

// shouldEmitPair reports whether a pairwise event may be emitted, and
// records it; repeats within the window are suppressed system-wide.
// The check is striped by key hash: a pair always routes to the same
// shard, so dedup stays exact while unrelated pairs never contend.
func (p *Pipeline) shouldEmitPair(key string, at time.Time, window time.Duration) bool {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	sh := &p.pairShards[h&(pairShardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if last, ok := sh.seen[key]; ok && at.Sub(last) < window {
		return false
	}
	// Opportunistic cleanup keeps each stripe bounded.
	if len(sh.seen) > (1<<16)/pairShardCount {
		for k, t := range sh.seen {
			if at.Sub(t) > window {
				delete(sh.seen, k)
			}
		}
	}
	sh.seen[key] = at
	return true
}

// New builds and starts the actor topology (writers only; vessel and
// cell actors materialise on first contact).
func New(cfg Config) (_ *Pipeline, err error) {
	if cfg.Forecaster == nil {
		return nil, fmt.Errorf("pipeline: a forecaster is required")
	}
	if err := cfg.Collision.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.HistoryLimit < 24 {
		cfg.HistoryLimit = 48
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 1
	}
	// The writer fan-out uses a power-of-two mask; round the writer pool
	// up so every mask value maps to a writer.
	for w := 1; ; w <<= 1 {
		if w >= cfg.Writers {
			cfg.Writers = w
			break
		}
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
		cfg:        cfg,
		system:     actor.NewSystem("seatwin"),
		store:      store,
		views:      vw,
		log:        events.NewLog(1 << 14),
		latency:    metrics.NewShardedLatencyRecorder(0),
		inferLat:   metrics.NewShardedLatencyRecorder(0),
		messages:   metrics.NewShardedCounter(0),
		forecasts:  metrics.NewShardedCounter(0),
		writerMask: uint64(cfg.Writers - 1),
		assembler:  ais.NewAssembler(),

		vesselRoutes:    newRouteCache(),
		proximityRoutes: newRouteCache(),
		collisionRoutes: newRouteCache(),

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
	p.retryP = cfg.Retry
	if p.retryP.IsZero() {
		p.retryP = retry.DefaultPolicy()
	}
	if cfg.RouteModel != nil {
		p.routeModel.Store(cfg.RouteModel)
	}
	for i := range p.pairShards {
		p.pairShards[i].seen = make(map[string]time.Time)
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
	if cfg.OutputBroker != nil {
		if p.cfg.OutputEventsTopic == "" {
			p.cfg.OutputEventsTopic = "seatwin-events"
		}
		if p.cfg.OutputStatesTopic == "" {
			p.cfg.OutputStatesTopic = "seatwin-states"
		}
		if err := cfg.OutputBroker.CreateTopic(p.cfg.OutputEventsTopic, 4); err != nil {
			return nil, err
		}
		if err := cfg.OutputBroker.CreateTopic(p.cfg.OutputStatesTopic, 4); err != nil {
			return nil, err
		}
	}
	// Route-cache invalidation rides the registry's unregister hook:
	// stopped or passivated actors drop their cached routes.
	p.system.OnUnregister(p.onActorUnregistered)
	if cfg.Feed != nil {
		p.feedDetach = cfg.Feed.AttachStream(p.system.Events())
	}
	for i := 0; i < cfg.Writers; i++ {
		pid, err := p.system.SpawnNamed(
			actor.PropsFromProducer(func() actor.Actor { return &writerActor{p: p} }),
			"writer-"+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		p.writers = append(p.writers, pid)
	}
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

// writerFor deterministically assigns an output source to one writer:
// a power-of-two mask over the mixed MMSI, cheaper than the modulo it
// replaces and evenly spread even for sequential MMSI blocks.
func (p *Pipeline) writerFor(mmsi ais.MMSI) *actor.PID {
	h := uint64(mmsi)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return p.writers[h&p.writerMask]
}

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

// saveCheckpoint persists one vessel's history window through the
// (possibly chaos-wrapped) store, with retries; an exhausted save is
// counted as a checkpoint failure and dropped — the previous
// checkpoint, if any, stays in place.
func (p *Pipeline) saveCheckpoint(mmsi ais.MMSI, reports []ais.PositionReport) {
	if len(reports) > 0 && p.checkpointStale(checkpoint.Key(mmsi), reports[len(reports)-1].Timestamp) {
		return
	}
	hint := uint64(mmsi)
	if p.retryDo(hint, func() error {
		return checkpoint.Save(p.kv, checkpoint.Snapshot{MMSI: mmsi, Reports: reports})
	}) {
		p.ckptSaves.Inc(hint, 1)
	} else {
		p.ckptFailures.Inc(hint, 1)
	}
}

// saveCheckpointFields is the writer actors' fast path around
// saveCheckpoint: the key is pre-rendered and cached per vessel, and
// the snapshot is encoded through the writer's reused checkpoint
// encoder straight into the store's append-based HSetFields — one
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
// HistoryLimit. ok is false when there is no usable checkpoint — a
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
	if len(reports) > p.cfg.HistoryLimit {
		reports = reports[len(reports)-p.cfg.HistoryLimit:]
	}
	p.ckptRestores.Inc(hint, 1)
	return reports, true
}

// Ingest routes one decoded AIS message into the pipeline: the entry
// point used by broker consumers and direct feeds alike.
func (p *Pipeline) Ingest(msg ais.Message, receivedAt time.Time) {
	if atomic.LoadInt32(&p.closed) == 1 {
		return
	}
	switch m := msg.(type) {
	case ais.StaticVoyage:
		// A foreign vessel's static document rides the forward topic to
		// its owner, whose shared cache needs it for the merge.
		if cl := p.cl; cl != nil && !cl.owns(uint64(m.MMSI)) {
			cl.forwardStatic(m)
			return
		}
		// Static info is cached in shared memory at ingestion, available
		// to every actor without a message round-trip (§3). Class B
		// type 24 messages arrive as partial documents (part A: name;
		// part B: dimensions), so new fields merge into the cache.
		if prev, ok := p.statics.Load(m.MMSI); ok {
			m = mergeStatic(prev.(ais.StaticVoyage), m)
		}
		p.statics.Store(m.MMSI, m)
		atomic.AddInt64(&p.ingested, 1)
		p.system.Send(p.vesselActor(m.MMSI), m)
	case ais.PositionReport:
		if cl := p.cl; cl != nil && !cl.owns(uint64(m.MMSI)) {
			cl.forwardPosition(m, receivedAt)
			return
		}
		p.messages.Inc(uint64(m.MMSI), 1)
		atomic.AddInt64(&p.ingested, 1)
		p.system.Send(p.vesselActor(m.MMSI), posMsg{report: m, receivedAt: receivedAt})
	}
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

// IngestNMEA routes one raw AIVDM sentence into the pipeline,
// assembling multi-fragment messages internally. Invalid sentences are
// counted and dropped (a live receiver feed always carries corrupt
// lines). It returns an error only for malformed input, which callers
// may ignore for lossy feeds.
func (p *Pipeline) IngestNMEA(line string, receivedAt time.Time) error {
	s, err := ais.ParseSentence(line)
	if err != nil {
		atomic.AddInt64(&p.badSentences, 1)
		return err
	}
	msg, err := p.assembler.Push(s, receivedAt)
	if err != nil {
		atomic.AddInt64(&p.badSentences, 1)
		return err
	}
	if msg != nil {
		p.Ingest(msg, receivedAt)
	}
	return nil
}

// BadSentences returns how many undecodable NMEA lines were dropped.
func (p *Pipeline) BadSentences() int64 { return atomic.LoadInt64(&p.badSentences) }

// TimedMessage pairs a decoded AIS message with its receive time, the
// unit of batched ingestion.
type TimedMessage struct {
	Msg        ais.Message
	ReceivedAt time.Time
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

// IngestBatch routes one poll's worth of messages into the pipeline,
// grouping position reports by MMSI and delivering each vessel's group
// as one mailbox push (see actor.System.SendBatch). Per-vessel order is
// preserved; cross-vessel order was never observable (distinct actors).
// Static voyage documents are rare and take the single-message path.
// Returns how many messages were accepted.
func (p *Pipeline) IngestBatch(batch []TimedMessage) int {
	if atomic.LoadInt32(&p.closed) == 1 || len(batch) == 0 {
		return 0
	}
	b := batcherPool.Get().(*ingestBatcher)
	n := 0
	for _, tm := range batch {
		switch m := tm.Msg.(type) {
		case ais.StaticVoyage:
			p.Ingest(m, tm.ReceivedAt)
			n++
		case ais.PositionReport:
			// Foreign reports are accepted into the cluster (counted in
			// n) but processed by their owner, so they skip the local
			// batching entirely.
			if cl := p.cl; cl != nil && !cl.owns(uint64(m.MMSI)) {
				cl.forwardPosition(m, tm.ReceivedAt)
				n++
				continue
			}
			p.messages.Inc(uint64(m.MMSI), 1)
			atomic.AddInt64(&p.ingested, 1)
			g := b.group(p, m.MMSI)
			g.msgs = append(g.msgs, posMsg{report: m, receivedAt: tm.ReceivedAt})
			n++
		}
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

// vesselActor returns (spawning on first contact) the actor of a MMSI.
// The hot path is one sharded int-keyed cache read; name building and
// registry hashing only happen on first contact or after passivation.
func (p *Pipeline) vesselActor(mmsi ais.MMSI) *actor.PID {
	if pid := p.vesselRoutes.get(uint64(mmsi)); pid != nil {
		return pid
	}
	return p.vesselActorSlow(mmsi)
}

func (p *Pipeline) vesselActorSlow(mmsi ais.MMSI) *actor.PID {
	pid, spawned := p.system.GetOrSpawn(vesselActorName(mmsi), actor.PropsFromProducer(func() actor.Actor {
		return newVesselActor(p, mmsi)
	}))
	if spawned {
		atomic.AddInt64(&p.vessels, 1)
	}
	p.vesselRoutes.put(uint64(mmsi), pid)
	return pid
}

// idleTimeout resolves the cell-passivation setting.
func (p *Pipeline) idleTimeout() time.Duration {
	switch {
	case p.cfg.CellIdleTimeout < 0:
		return 0 // never passivate
	case p.cfg.CellIdleTimeout == 0:
		return 5 * time.Minute
	default:
		return p.cfg.CellIdleTimeout
	}
}

// proximityActor returns the cell actor of a proximity cell, through
// the sharded route cache like vesselActor.
func (p *Pipeline) proximityActor(cell hexgrid.Cell) *actor.PID {
	if pid := p.proximityRoutes.get(uint64(cell)); pid != nil {
		return pid
	}
	return p.proximityActorSlow(cell)
}

func (p *Pipeline) proximityActorSlow(cell hexgrid.Cell) *actor.PID {
	pid, _ := p.system.GetOrSpawn(proximityActorName(cell), actor.PropsFromProducer(func() actor.Actor {
		return &cellActor{
			p:          p,
			detector:   events.NewGridProximityDetector(p.cfg.Proximity),
			passivator: newPassivator(p.idleTimeout()),
		}
	}))
	p.proximityRoutes.put(uint64(cell), pid)
	return pid
}

// collisionActor returns the collision actor of a collision cell,
// through the sharded route cache like vesselActor.
func (p *Pipeline) collisionActor(cell hexgrid.Cell) *actor.PID {
	if pid := p.collisionRoutes.get(uint64(cell)); pid != nil {
		return pid
	}
	return p.collisionActorSlow(cell)
}

func (p *Pipeline) collisionActorSlow(cell hexgrid.Cell) *actor.PID {
	pid, _ := p.system.GetOrSpawn(collisionActorName(cell), actor.PropsFromProducer(func() actor.Actor {
		d := events.NewGridDetector(p.cfg.Collision, 10*time.Minute)
		d.SetCell(uint64(cell))
		return &collisionActor{
			p:          p,
			detector:   d,
			passivator: newPassivator(p.idleTimeout()),
		}
	}))
	p.collisionRoutes.put(uint64(cell), pid)
	return pid
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

// timedBatchPool recycles the per-round record->TimedMessage staging
// slice of consumeRound (concurrent ConsumeLoops each draw their own).
var timedBatchPool = sync.Pool{
	New: func() any {
		s := make([]TimedMessage, 0, 512)
		return &s
	},
}

// consumeRound runs one poll/ingest/commit round, converting a panic
// into an error so the loop above can back off and retry. The round
// stages the poll into a TimedMessage batch and hands it to
// IngestBatch, so each vessel's reports in the poll cost one mailbox
// push instead of one per report. Commit still only runs after the
// whole batch was enqueued (at-least-once is untouched: a faulted
// round never commits and redelivers).
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
	bp := timedBatchPool.Get().(*[]TimedMessage)
	batch := (*bp)[:0]
	for _, r := range recs {
		if msg, ok := r.Value.(ais.Message); ok {
			batch = append(batch, TimedMessage{Msg: msg, ReceivedAt: r.Timestamp})
		}
	}
	ingested = p.IngestBatch(batch)
	for i := range batch {
		batch[i].Msg = nil
	}
	*bp = batch[:0]
	timedBatchPool.Put(bp)
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
	if p.feedDetach != nil {
		p.feedDetach()
	}
	if p.cfg.Store == nil {
		p.store.Close()
	}
	if p.cfg.Views == nil {
		p.views.Close()
	}
}

// Feed returns the live-feed hub, or nil when not configured.
func (p *Pipeline) Feed() *feed.Hub { return p.cfg.Feed }

// Views returns the read-side serving layer; never nil. It is
// Config.Views when one was provided (the caller closes it), else the
// pipeline's own, which Shutdown closes.
func (p *Pipeline) Views() *views.Views { return p.views }

// DecodeFeedRecord converts one record of the seatwin-states /
// seatwin-events output topics into a feed hub input — the adapter for
// running a feed.Hub against the durable broker instead of embedded:
//
//	go hub.ConsumeLoop(statesConsumer, pipeline.DecodeFeedRecord, time.Hour)
func DecodeFeedRecord(r broker.Record) (any, bool) {
	switch v := r.Value.(type) {
	case StateOutput:
		return feed.State{
			MMSI: v.Report.MMSI,
			Lat:  v.Report.Lat, Lon: v.Report.Lon,
			SOG: v.Report.SOG, COG: v.Report.COG,
			Status:   v.Report.Status.String(),
			TS:       v.Report.Timestamp,
			Forecast: v.Forecast,
		}, true
	case events.Event:
		return v, true
	default:
		return nil, false
	}
}
