package pipeline

import (
	"strconv"
	"time"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/checkpoint"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/views"
)

// Messages exchanged between the pipeline's actors. A vessel actor
// receives the bare ais.PositionReport and ais.StaticVoyage. The keyed
// ones a cell actor receives export their fields: they cross partitions
// inside a Forwarded envelope, encoded by gob.
type (
	// cellPosMsg shares a vessel position with a proximity cell actor.
	cellPosMsg struct {
		MMSI ais.MMSI
		Pos  geo.Point
		At   time.Time
	}
	// forecastMsg shares a vessel's forecast with a collision cell
	// actor.
	forecastMsg struct {
		Forecast events.Forecast
		At       time.Time
	}
	// eventMsg carries a detected or forecast event to the writer actor.
	eventMsg struct {
		event events.Event
	}
	// stateMsg carries a vessel's current state to the writer actor.
	stateMsg struct {
		report   ais.PositionReport
		forecast []events.ForecastPoint
	}
	// ckptMsg carries a copy of a vessel's history window to the writer
	// actor for checkpointing (the same batched-write path as states).
	ckptMsg struct {
		mmsi    ais.MMSI
		reports []ais.PositionReport
	}
)

// vesselActor is the per-MMSI digital twin: it keeps the vessel's
// recent history, runs the shared forecasting model and fans results
// out to the spatial actors and the writer.
type vesselActor struct {
	p       *Pipeline
	mmsi    ais.MMSI
	history []ais.PositionReport
	soff    *events.SwitchOffDetector
	static  ais.StaticVoyage
	// sinceCkpt counts accepted reports since the last checkpoint was
	// scheduled; dirty marks history not yet covered by one (so the
	// Stopping snapshot is skipped when nothing changed).
	sinceCkpt int
	dirty     bool

	// Fan-out scratch, reused across reports (the actor is
	// single-threaded): the proximity cell list and the forecast cell
	// tracer's buffers.
	cellScratch []hexgrid.Cell
	tracer      events.CellTracer
}

func newVesselActor(p *Pipeline, mmsi ais.MMSI) *vesselActor {
	return &vesselActor{
		p:    p,
		mmsi: mmsi,
		soff: events.NewSwitchOffDetector(p.cfg.SwitchOff),
	}
}

// Receive implements actor.Actor.
func (v *vesselActor) Receive(c *actor.Context) {
	switch m := c.Message().(type) {
	case actor.Started:
		// Started precedes every user message, both on first spawn and
		// after a supervision restart, so rehydration runs before any
		// report is processed: a restarted pipeline (or a crashed-and-
		// restarted actor) resumes forecasting from its checkpointed
		// window instead of re-warming from MinLiveReports. Replayed
		// broker records are then deduplicated by the out-of-order guard
		// in onPosition against the restored (nanosecond-exact) tail.
		if v.p.ckptInterval() > 0 {
			if reports, ok := v.p.loadCheckpoint(v.mmsi); ok {
				v.history = reports
			}
		}
	case actor.Stopping:
		// Passivation and shutdown snapshot the final window directly
		// (the writer actor may already be stopping), so a clean stop
		// never loses more than nothing.
		if v.dirty && v.p.ckptInterval() > 0 && len(v.history) > 0 {
			var enc checkpoint.Encoder
			v.p.saveCheckpointFields(checkpoint.Key(v.mmsi), v.mmsi, v.history, &enc)
			v.dirty = false
		}
	case ais.PositionReport:
		start := time.Now()
		v.onPosition(c, m)
		v.p.latency.Observe(uint64(v.mmsi), time.Since(start))
	case ais.StaticVoyage:
		v.static = m
	}
}

func (v *vesselActor) onPosition(c *actor.Context, r ais.PositionReport) {
	// Out-of-order reports are dropped: per-key broker ordering makes
	// them rare, but satellite feeds can replay.
	if n := len(v.history); n > 0 && !r.Timestamp.After(v.history[n-1].Timestamp) {
		return
	}
	// Switch-off detection precedes the history append.
	if e, fired := v.soff.Update(r.MMSI, geo.Point{Lat: r.Lat, Lon: r.Lon}, r.Timestamp); fired {
		v.p.emit(c, e)
	}
	v.history = append(v.history, r)
	if len(v.history) > historyLimit {
		// Trim in place: nothing downstream retains a view of history
		// (the forecasters read it synchronously and build fresh points;
		// checkpoints copy explicitly), so sliding the window within the
		// same buffer avoids reallocating it on every report.
		drop := len(v.history) - historyLimit
		n := copy(v.history, v.history[drop:])
		v.history = v.history[:n]
	}
	// Periodic checkpoint: every ckptInterval accepted reports a copy of
	// the window rides the writer path (one batched HSetFields), so a
	// crash at any point loses at most an interval's worth of warmup.
	if interval := v.p.ckptInterval(); interval > 0 {
		v.dirty = true
		v.sinceCkpt++
		if v.sinceCkpt >= interval {
			v.sinceCkpt = 0
			v.dirty = false
			c.Send(v.p.writer,
				ckptMsg{mmsi: v.mmsi, reports: append([]ais.PositionReport(nil), v.history...)})
		}
	}

	// Forecast with the shared model. The call is timed separately from
	// the whole message so operators can see how much of the processing
	// budget is model inference (seatwin_svrf_infer_seconds).
	var forecast events.Forecast
	haveForecast := false
	inferStart := time.Now()
	if f, ok := v.p.cfg.Forecaster.ForecastTrack(v.history); ok {
		forecast = f
		haveForecast = true
		v.p.forecasts.Inc(uint64(v.mmsi), 1)
		v.p.inferLat.Observe(uint64(v.mmsi), time.Since(inferStart))
	}

	if mon := v.p.congestion; mon != nil {
		mon.ObservePosition(r.MMSI, geo.Point{Lat: r.Lat, Lon: r.Lon}, r.Timestamp)
		if haveForecast {
			mon.ObserveForecast(forecast)
		}
	}

	// Positions go to the proximity cell actor of the report's cell and
	// near neighbours, so borders cannot hide a close pair. The cell list
	// is built into the actor's reused scratch slice.
	pos := geo.Point{Lat: r.Lat, Lon: r.Lon}
	v.cellScratch = hexgrid.AppendDiskCovering(v.cellScratch[:0], pos, proximityResolution, v.p.cfg.Proximity.ThresholdMeters)
	// Box the (immutable) message once and share it across every
	// destination cell instead of re-boxing per Send. Cells are placed on
	// the ring like vessels: route sends the share of a cell owned by
	// another partition over its forward topic.
	var cpm any = cellPosMsg{MMSI: r.MMSI, Pos: pos, At: r.Timestamp}
	for _, cell := range v.cellScratch {
		v.p.route(kindProximity, uint64(cell), cpm)
	}
	// Forecasts go to the collision actors of every cell the predicted
	// track crosses plus each nearest neighbour (§5.2: "the respective
	// cell n and each n+1 nearest cell"), in the sorted order of the cell
	// set the forecast carries: the receivers use the sets to agree on
	// the one cell that sweeps each pair.
	if haveForecast {
		forecast.Cells = v.tracer.Cells(forecast, collisionResolution)
		var fm any = forecastMsg{Forecast: forecast, At: r.Timestamp}
		for _, id := range forecast.Cells {
			v.p.route(kindCollision, id, fm)
		}
	}

	// Persist state through the writer actor.
	msg := stateMsg{report: r}
	if haveForecast {
		msg.forecast = forecast.Points
	}
	c.Send(v.p.writer, msg)
}

// emit is how every actor publishes a detected or forecast event: it
// only sends it to the writer, which applies the collision-pair
// cooldown, then logs, persists and publishes it.
//
// emit stays out of line: inlined, it grew cellActor.Receive's frame
// and, on a dense strait, about doubled the measured proximity update
// time (events.prox_update_us), likely from the stack growth the larger
// frame costs the fresh goroutine each idle-to-busy wakeup starts.
//
//go:noinline
func (p *Pipeline) emit(c *actor.Context, e events.Event) {
	c.Send(p.writer, eventMsg{event: e})
}

// cellActor is the actor of one hexgrid cell. It runs its family's
// detector over the traffic shared into the cell: a proximity cell (grid
// M) detects live close pairs among the reported positions, a collision
// cell (grid K) forecasts collisions among the predicted trajectories
// crossing it.
type cellActor struct {
	p *Pipeline
	// Exactly one detector is set, by the actor's kind.
	prox       *events.GridProximityDetector
	coll       *events.GridDetector
	m          *detectorMetrics // the family's aggregates
	passivator passivator

	// Metric bookkeeping: the detector's stats are cumulative and its
	// occupancy a level, so the actor pushes deltas into the pipeline's
	// sharded aggregates. hint is the last MMSI seen — it keeps the
	// passivation decrement on the shard this cell was writing to.
	tracked   int64
	lastStats events.DetectorStats
	hint      uint64
}

// Receive implements actor.Actor.
func (a *cellActor) Receive(c *actor.Context) {
	if _, stopping := c.Message().(actor.Stopping); stopping {
		// The occupancy gauge drops this cell's tracked entries when it
		// passivates — handled before touch so the stop is not mistaken
		// for activity (touch would re-arm the idle timer).
		a.m.tracked.Inc(a.hint, -a.tracked)
		a.tracked = 0
		return
	}
	if a.passivator.touch(c) {
		return
	}
	var evs []events.Event
	var start time.Time
	switch m := c.Message().(type) {
	case cellPosMsg:
		a.hint = uint64(m.MMSI)
		start = time.Now()
		evs = a.prox.Update(m.MMSI, m.Pos, m.At)
	case forecastMsg:
		// The detector sweeps only the pairs this cell owns, so a pass
		// emits each pair once; the writer's cooldown suppresses the
		// repeats of later passes.
		a.hint = uint64(m.Forecast.MMSI)
		start = time.Now()
		evs = a.coll.Update(m.Forecast, m.At)
	default:
		return
	}
	a.m.updateLat.Observe(a.hint, time.Since(start))
	a.pushDetectorStats()
	for _, e := range evs {
		a.p.emit(c, e)
	}
}

// pushDetectorStats folds the update's effect into the family's
// aggregates: the occupancy delta and the candidate funnel. Deferred
// is pushed only when it moved: proximity never defers.
func (a *cellActor) pushDetectorStats() {
	var size int
	var st events.DetectorStats
	if a.coll != nil {
		size, st = a.coll.Size(), a.coll.Stats()
	} else {
		size, st = a.prox.Size(), a.prox.Stats()
	}
	a.m.tracked.Inc(a.hint, int64(size)-a.tracked)
	a.tracked = int64(size)
	a.m.candidates.Inc(a.hint, st.Candidates-a.lastStats.Candidates)
	if d := st.Deferred - a.lastStats.Deferred; d != 0 {
		a.m.deferred.Inc(a.hint, d)
	}
	a.m.checked.Inc(a.hint, st.Checked-a.lastStats.Checked)
	a.m.evictions.Inc(a.hint, st.Evicted-a.lastStats.Evicted)
	a.lastStats = st
}

// writerActor persists actor outputs into the kvstore middleware: the
// vessel state hash, the event sorted set and a pub/sub notification —
// the read side the HTTP API serves.
//
// The actor is single-threaded, so its encoding scratch (field encoder,
// event-member buffer, per-vessel key cache) and the collision-pair
// cooldown are reused across messages without locks — the write path
// allocates almost nothing per state. Every field works from its zero
// value.
type writerActor struct {
	p       *Pipeline
	enc     fieldEncoder
	ckptEnc checkpoint.Encoder
	evBuf   []byte
	// keys caches the rendered store key and 9-digit member string per
	// vessel (bounded by the fleet; entries are tiny).
	keys map[ais.MMSI]writerKeys
	// pairSeen is the collision-pair cooldown: when each vessel pair
	// (events.PairKey) was last emitted, by detection time. Every event
	// of the process reaches this one actor, so it needs no lock.
	pairSeen map[uint64]time.Time
}

// pairCooldown is how long repeats of an emitted collision pair are
// suppressed. The owner rule emits a pair from one cell per pass, but
// later passes (possibly owned by another cell) repeat it.
const pairCooldown = 5 * time.Minute

// writerKeys are the per-vessel strings a state write needs.
type writerKeys struct {
	stateKey string // "vessel:" + 9-digit MMSI
	ckptKey  string // "ckpt:" + 9-digit MMSI
	mmsi     string // 9-digit MMSI (the active-set member)
}

// keysFor returns (building on first sight) the cached key strings of
// a vessel.
func (w *writerActor) keysFor(m ais.MMSI) writerKeys {
	if k, ok := w.keys[m]; ok {
		return k
	}
	if w.keys == nil {
		w.keys = make(map[ais.MMSI]writerKeys, 256)
	}
	b := m.Append(make([]byte, 0, 16+9))
	k := writerKeys{
		stateKey: "vessel:" + string(b),
		ckptKey:  checkpoint.KeyPrefix + string(b),
		mmsi:     string(b),
	}
	w.keys[m] = k
	return k
}

// Receive implements actor.Actor.
func (w *writerActor) Receive(c *actor.Context) {
	switch m := c.Message().(type) {
	case stateMsg:
		w.writeState(m)
	case eventMsg:
		w.writeEvent(m.event)
	case ckptMsg:
		ks := w.keysFor(m.mmsi)
		w.p.saveCheckpointFields(ks.ckptKey, m.mmsi, m.reports, &w.ckptEnc)
	}
}

func (w *writerActor) writeState(m stateMsg) {
	ks := w.keysFor(m.report.MMSI)
	st := w.p.kv
	static, haveStatic := w.p.Static(m.report.MMSI)
	vs := views.VesselState{
		MMSI: m.report.MMSI, Name: static.Name,
		Lat: m.report.Lat, Lon: m.report.Lon,
		SOG: m.report.SOG, COG: m.report.COG,
		Status:   m.report.Status.String(),
		TS:       m.report.Timestamp,
		Forecast: m.forecast,
	}
	if hub := w.p.cfg.Feed; hub != nil {
		// Push transports: the hub's bounded per-subscriber rings
		// guarantee this publish never blocks the writer.
		hub.PublishState(vs)
	}
	// The read-side views stage the state in a sharded buffer; the
	// snapshot rebuild happens on the views' own refresh cadence, so this
	// is a few field copies plus one stripe lock — never a snapshot
	// encode on the writer's hot path.
	w.p.views.ApplyState(vs)
	// One batched write per state update — a single lock acquisition on
	// the store — with the whole document encoded into the writer's
	// reused field encoder: every value is appended into one shared
	// buffer and materialised by a single string conversion (status and
	// name are constant strings and aren't even copied).
	e := &w.enc
	e.reset()
	e.buf = strconv.AppendFloat(e.buf, m.report.Lat, 'f', 5, 64)
	e.commit("lat")
	e.buf = strconv.AppendFloat(e.buf, m.report.Lon, 'f', 5, 64)
	e.commit("lon")
	e.buf = strconv.AppendFloat(e.buf, m.report.SOG, 'f', 1, 64)
	e.commit("sog")
	e.buf = strconv.AppendFloat(e.buf, m.report.COG, 'f', 1, 64)
	e.commit("cog")
	e.direct("status", m.report.Status.String())
	e.buf = m.report.Timestamp.UTC().AppendFormat(e.buf, time.RFC3339)
	e.commit("ts")
	if len(m.forecast) > 0 {
		e.buf = appendForecast(e.buf, m.forecast)
		e.commit("forecast")
	}
	if haveStatic {
		e.direct("name", static.Name)
		e.buf = strconv.AppendInt(e.buf, int64(static.ShipType), 10)
		e.commit("type")
	}
	fields := e.finish()
	// Writes go through the retry policy; an exhausted write is dropped
	// (degraded mode, counted in seatwin_retry_exhausted_total) — the
	// next report for this vessel rewrites the full document anyway.
	hint := uint64(m.report.MMSI)
	w.p.retryDo(hint, func() error {
		_, err := st.HSetFields(ks.stateKey, fields)
		return err
	})
	// The active-vessel index, scored by last report time.
	w.p.retryDo(hint, func() error {
		_, err := st.ZAdd("vessels:active", float64(m.report.Timestamp.Unix()), ks.mmsi)
		return err
	})
}

// admitPair reports whether a collision event is the first of its pair
// within pairCooldown, and records it.
func (w *writerActor) admitPair(e events.Event) bool {
	key, at := e.PairKey(), e.DetectedAt
	if last, ok := w.pairSeen[key]; ok && at.Sub(last) < pairCooldown {
		return false
	}
	if w.pairSeen == nil {
		w.pairSeen = make(map[uint64]time.Time)
	}
	// Opportunistic cleanup keeps the map bounded.
	if len(w.pairSeen) > 1<<16 {
		for k, t := range w.pairSeen {
			if at.Sub(t) > pairCooldown {
				delete(w.pairSeen, k)
			}
		}
	}
	w.pairSeen[key] = at
	return true
}

func (w *writerActor) writeEvent(e events.Event) {
	if e.Kind == events.KindCollisionForecast && !w.admitPair(e) {
		return
	}
	// Logged here, after the cooldown, so Stats.Events counts each
	// emitted event once.
	w.p.log.Append(e)
	if hub := w.p.cfg.Feed; hub != nil {
		hub.PublishEvent(e)
	}
	w.p.views.ApplyEvent(e)
	// The member is byte-appended into the writer's reused buffer —
	// the format matches the fmt.Sprintf("%s|%s|%s|%.0fm|%s") it
	// replaces, including the MMSIs' 9-digit padding.
	b := w.evBuf[:0]
	b = append(b, string(e.Kind)...)
	b = append(b, '|')
	b = e.A.Append(b)
	b = append(b, '|')
	b = e.B.Append(b)
	b = append(b, '|')
	b = strconv.AppendFloat(b, e.Meters, 'f', 0, 64)
	b = append(b, 'm', '|')
	b = e.At.UTC().AppendFormat(b, time.RFC3339)
	w.evBuf = b
	member := string(b)
	w.p.retryDo(uint64(e.A), func() error {
		_, err := w.p.kv.ZAdd("events:"+string(e.Kind), float64(e.At.Unix()), member)
		return err
	})
	w.p.kv.Publish("events", member)
}

// appendForecast renders forecast points compactly for the store:
// "lat,lon,unix;..." — small enough for a hash field and trivially
// parseable by the API layer.
func appendForecast(buf []byte, pts []events.ForecastPoint) []byte {
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendFloat(buf, p.Pos.Lat, 'f', 5, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.Pos.Lon, 'f', 5, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, p.At.Unix(), 10)
	}
	return buf
}
