package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/geo"
	"seatwin/internal/lvrf"
)

// API is the middleware HTTP layer of Figure 2: it serves the UI the
// state the writer actors published — lists and rollups from the views'
// snapshots, single-vessel documents from the kvstore.
type API struct {
	p   *Pipeline
	srv *http.Server
	mux *http.ServeMux

	mu sync.Mutex
	ln net.Listener
}

// NewAPI builds the handler around a pipeline.
func NewAPI(p *Pipeline) *API {
	a := &API{p: p}
	mux := http.NewServeMux()
	a.mux = mux
	mux.HandleFunc("/api/health", a.handleHealth)
	mux.HandleFunc("/api/stats", a.handleStats)
	mux.HandleFunc("/api/vessels", a.handleVessels)
	mux.HandleFunc("/api/vessels/", a.handleVessel)
	mux.HandleFunc("/api/events", a.handleEvents)
	mux.HandleFunc("/api/regions", a.handleRegions)
	mux.HandleFunc("/api/congestion", a.handleCongestion)
	mux.HandleFunc("/api/route", a.handleRoute)
	mux.HandleFunc("/api/stream", a.handleStream)
	mux.HandleFunc("/metrics", a.handleMetrics)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// Handler exposes the mux (tests drive it via httptest).
func (a *API) Handler() http.Handler { return a.srv.Handler }

// ListenAndServe binds addr and serves until Close.
func (a *API) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	return a.srv.Serve(ln)
}

// Addr returns the bound address, or nil before ListenAndServe.
func (a *API) Addr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close shuts the server down.
func (a *API) Close() error { return a.srv.Close() }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
// on the API mux. Off by default: profiling endpoints expose internals
// (and a CPU-profile request costs real cycles), so deployments opt in
// explicitly (the seatwin binary's -pprof flag). Call before
// ListenAndServe.
func (a *API) EnablePprof() {
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already on the wire, so no status can be changed;
		// a failed encode (almost always a client hang-up mid-body) must
		// still be visible to operators rather than vanish.
		log.Printf("api: encode response: %v", err)
	}
}

// parseLimit resolves an optional positive integer query parameter,
// failing the request with 400 on malformed input. ok=false means the
// response has been written.
func parseLimit(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v <= 0 {
		http.Error(w, fmt.Sprintf("%s must be a positive integer, got %q", name, q), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// handleStream serves the live push feed over SSE (see internal/feed);
// 404 when the pipeline was built without a feed hub.
func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	hub := a.p.cfg.Feed
	if hub == nil {
		http.Error(w, "live feed not configured", http.StatusNotFound)
		return
	}
	hub.SSEHandler().ServeHTTP(w, r)
}

func (a *API) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// detectionDoc renders one detector family's telemetry for /api/stats.
func detectionDoc(d DetectionStats) map[string]any {
	return map[string]any{
		"update_mean":    d.UpdateLatency.Mean.String(),
		"update_p99":     d.UpdateLatency.P99.String(),
		"updates":        d.UpdateLatency.Count,
		"candidates":     d.Candidates,
		"pairs_deferred": d.Deferred,
		"pairs_checked":  d.Checked,
		"evictions":      d.Evicted,
		"tracked":        d.Tracked,
	}
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	s := a.p.Stats()
	doc := map[string]any{
		"messages":     s.Messages,
		"forecasts":    s.Forecasts,
		"live_actors":  s.LiveActors,
		"events":       s.Events,
		"dead_letters": s.DeadLetter,
		"latency_mean": s.Latency.Mean.String(),
		"latency_p95":  s.Latency.P95.String(),
		"latency_p99":  s.Latency.P99.String(),
		"infer_mean":   s.InferLatency.Mean.String(),
		"infer_p99":    s.InferLatency.P99.String(),

		"retry_attempts":      s.RetryAttempts,
		"retry_retried":       s.RetryRetried,
		"retry_exhausted":     s.RetryExhausted,
		"checkpoint_saves":    s.CheckpointSaves,
		"checkpoint_restores": s.CheckpointRestores,
		"checkpoint_failures": s.CheckpointFailures,

		"events_detection": map[string]any{
			"proximity": detectionDoc(s.ProximityDetection),
			"collision": detectionDoc(s.CollisionDetection),
		},
	}
	vs := a.p.views.Stats()
	doc["views"] = map[string]any{
		"epoch":          vs.Epoch,
		"epoch_age":      vs.EpochAge.String(),
		"refreshes":      vs.Refreshes,
		"states_applied": vs.StatesApplied,
		"events_applied": vs.EventsApplied,
		"refresh_mean":   vs.RefreshMean.String(),
		"refresh_p99":    vs.RefreshP99.String(),
		"snapshot_bytes": vs.SnapshotBytes,
		"vessels":        vs.Vessels,
		"cells":          vs.Cells,
		"events_window":  vs.EventsWindow,
	}
	if hub := a.p.cfg.Feed; hub != nil {
		if rs := hub.RelayStats(); rs.Relays > 0 {
			doc["feed_relays"] = map[string]any{
				"relays":           rs.Relays,
				"subscribers":      rs.Subscribers,
				"relayed":          rs.Relayed,
				"fanned":           rs.Fanned,
				"conflation_drops": rs.ConflationDrops,
				"local_dropped":    rs.LocalDropped,
				"local_conflated":  rs.LocalConflated,
				"disconnected":     rs.Disconnected,
			}
		}
	}
	if cs := s.Cluster; cs != nil {
		doc["cluster"] = map[string]any{
			"worker_id":        cs.WorkerID,
			"epoch":            cs.Epoch,
			"partitions":       cs.Partitions,
			"owned_partitions": cs.OwnedPartitions,
			"forwards":         cs.Forwards,
			"forward_drops":    cs.ForwardDrops,
			"received":         cs.Received,
			"fenced":           cs.Fenced,
			"rebalances":       cs.Rebalances,
			"pending_forwards": cs.PendingForwards,
		}
	}
	if ts := s.Train; ts.Runs > 0 || ts.Lanes > 0 {
		doc["train"] = map[string]any{
			"runs":            ts.Runs,
			"epochs":          ts.Epochs,
			"batches":         ts.Batches,
			"samples":         ts.Samples,
			"clip_events":     ts.ClipEvents,
			"lanes":           ts.Lanes,
			"train_seconds":   ts.TrainSeconds,
			"last_loss":       ts.LastLoss,
			"samples_per_sec": ts.SamplesPerSec,
		}
	}
	if ls := s.Lifecycle; ls.Cycles > 0 {
		doc["lifecycle"] = map[string]any{
			"cycles":             ls.Cycles,
			"promotions":         ls.Promotions,
			"rejections":         ls.Rejections,
			"skips":              ls.Skips,
			"replay_records":     ls.ReplayRecords,
			"lane_rebuilds":      ls.LaneRebuilds,
			"retrain_seconds":    ls.RetrainSeconds,
			"eval_seconds":       ls.EvalSeconds,
			"generation":         ls.Generation,
			"last_live_ade":      ls.LastLiveADE,
			"last_candidate_ade": ls.LastCandidateADE,
			"last_train_windows": ls.LastTrainWindows,
			"last_holdout":       ls.LastHoldout,
		}
	}
	writeJSON(w, doc)
}

// vesselJSON is one vessel state document.
type vesselJSON struct {
	MMSI     string         `json:"mmsi"`
	Name     string         `json:"name,omitempty"`
	Lat      float64        `json:"lat"`
	Lon      float64        `json:"lon"`
	SOG      float64        `json:"sog"`
	COG      float64        `json:"cog"`
	Status   string         `json:"status"`
	At       string         `json:"ts"`
	Forecast []forecastJSON `json:"forecast,omitempty"`
}

type forecastJSON struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	At  int64   `json:"t"`
}

func (a *API) vesselDoc(mmsi string) (vesselJSON, bool) {
	h, err := a.p.store.HGetAll("vessel:" + mmsi)
	if err != nil || len(h) == 0 {
		return vesselJSON{}, false
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	doc := vesselJSON{
		MMSI:   mmsi,
		Name:   h["name"],
		Lat:    parse(h["lat"]),
		Lon:    parse(h["lon"]),
		SOG:    parse(h["sog"]),
		COG:    parse(h["cog"]),
		Status: h["status"],
		At:     h["ts"],
	}
	if raw := h["forecast"]; raw != "" {
		for _, part := range strings.Split(raw, ";") {
			f := strings.Split(part, ",")
			if len(f) != 3 {
				continue
			}
			t, _ := strconv.ParseInt(f[2], 10, 64)
			doc.Forecast = append(doc.Forecast, forecastJSON{
				Lat: parse(f[0]), Lon: parse(f[1]), At: t,
			})
		}
	}
	return doc, true
}

// parseBBox resolves an optional bounding-box query parameter of the
// form "minLat,minLon,maxLat,maxLon". nil with ok=true means no box
// was requested; ok=false means a 400 has been written.
func parseBBox(w http.ResponseWriter, r *http.Request) (*geo.BBox, bool) {
	q := r.URL.Query().Get("bbox")
	if q == "" {
		return nil, true
	}
	bad := func(why string) (*geo.BBox, bool) {
		http.Error(w, fmt.Sprintf("bbox must be minLat,minLon,maxLat,maxLon (%s), got %q", why, q), http.StatusBadRequest)
		return nil, false
	}
	parts := strings.Split(q, ",")
	if len(parts) != 4 {
		return bad("four comma-separated numbers")
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return bad("non-numeric component")
		}
		vals[i] = v
	}
	box := &geo.BBox{MinLat: vals[0], MinLon: vals[1], MaxLat: vals[2], MaxLon: vals[3]}
	if box.MinLat > box.MaxLat || box.MinLon > box.MaxLon {
		return bad("min greater than max")
	}
	return box, true
}

func (a *API) handleVessels(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, "limit", 100)
	if !ok {
		return
	}
	box, ok := parseBBox(w, r)
	if !ok {
		return
	}
	// One atomic snapshot load, pre-encoded JSON straight onto the wire —
	// no store scan, no locks, no per-request allocation.
	w.Header().Set("Content-Type", "application/json")
	if _, err := a.p.views.Vessels().WriteJSON(w, limit, box); err != nil {
		log.Printf("api: write vessels view: %v", err)
	}
}

// handleRegions serves the per-hex-cell traffic rollup.
func (a *API) handleRegions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := a.p.views.Regions().WriteJSON(w); err != nil {
		log.Printf("api: write regions view: %v", err)
	}
}

func (a *API) handleVessel(w http.ResponseWriter, r *http.Request) {
	mmsi := strings.TrimPrefix(r.URL.Path, "/api/vessels/")
	doc, ok := a.vesselDoc(mmsi)
	if !ok {
		http.Error(w, "unknown vessel", http.StatusNotFound)
		return
	}
	writeJSON(w, doc)
}

func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, "limit", 100)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := a.p.views.Events().WriteJSON(w, limit); err != nil {
		log.Printf("api: write events view: %v", err)
	}
}

// handleRoute serves the L-VRF long-term route forecast and Patterns
// of Life for an origin/destination port pair (§4.1; Figure 4a/4b):
// GET /api/route?from=Piraeus&to=Heraklion&type=70&length=190&draught=10.5
func (a *API) handleRoute(w http.ResponseWriter, r *http.Request) {
	// Client errors (malformed/missing parameters) are diagnosed before
	// deployment state, so a 404 always means "no model here".
	q := r.URL.Query()
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		http.Error(w, "from and to are required", http.StatusBadRequest)
		return
	}
	// Absent parameters take defaults; malformed ones are a client
	// error, not a silent fallback.
	parse := func(key string, def float64) (float64, error) {
		s := q.Get(key)
		if s == "" {
			return def, nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("%s must be numeric, got %q", key, s)
		}
		return v, nil
	}
	var features lvrf.Features
	shipType, errT := parse("type", 70)
	length, errL := parse("length", 190)
	draught, errD := parse("draught", 10)
	for _, err := range []error{errT, errL, errD} {
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	features = lvrf.Features{ShipType: uint8(shipType), Length: length, Draught: draught}
	model := a.p.RouteModel()
	if model == nil {
		http.Error(w, "route model not configured", http.StatusNotFound)
		return
	}
	path, err := model.ForecastRoute(from, to, features)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	type pointJSON struct {
		Lat float64 `json:"lat"`
		Lon float64 `json:"lon"`
	}
	doc := map[string]any{"from": from, "to": to}
	pts := make([]pointJSON, 0, len(path))
	for _, p := range path {
		pts = append(pts, pointJSON{Lat: p.Lat, Lon: p.Lon})
	}
	doc["route"] = pts
	if pol, err := model.PatternsOfLife(from, to); err == nil {
		doc["patterns_of_life"] = map[string]any{
			"trips":           pol.Trips,
			"distinct_mmsis":  pol.DistinctMMSIs,
			"mean_duration_s": int(pol.MeanDuration.Seconds()),
			"std_duration_s":  int(pol.StdDuration.Seconds()),
			"mean_length_m":   pol.MeanLengthM,
			"mean_speed_kn":   pol.MeanSpeedKn,
			"type_histogram":  pol.TypeHistogram,
		}
	}
	writeJSON(w, doc)
}

func (a *API) handleCongestion(w http.ResponseWriter, _ *http.Request) {
	if a.p.Congestion() == nil {
		http.Error(w, "port monitoring not configured", http.StatusNotFound)
		return
	}
	// The rollup was evaluated on the last refresh; serving it is one
	// atomic load and one write, never a per-request monitor Snapshot (a
	// global lock).
	w.Header().Set("Content-Type", "application/json")
	if err := a.p.views.Congestion().WriteJSON(w); err != nil {
		log.Printf("api: write congestion view: %v", err)
	}
}

// handleMetrics exposes the pipeline counters in the Prometheus text
// exposition format, so standard observability tooling can scrape the
// digital twin without an adapter.
func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s := a.p.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("seatwin_messages_total", "AIS position reports ingested", float64(s.Messages))
	counter("seatwin_forecasts_total", "route forecasts produced", float64(s.Forecasts))
	counter("seatwin_events_total", "maritime events detected or forecast", float64(s.Events))
	counter("seatwin_dead_letters_total", "undeliverable actor messages", float64(s.DeadLetter))
	counter("seatwin_bad_sentences_total", "rejected NMEA sentences", float64(a.p.BadSentences()))
	counter("seatwin_retry_attempts_total", "store/consume operation attempts under the retry policy", float64(s.RetryAttempts))
	counter("seatwin_retry_retried_total", "operations that succeeded after at least one retry", float64(s.RetryRetried))
	counter("seatwin_retry_exhausted_total", "operations dropped to degraded mode after exhausting retries", float64(s.RetryExhausted))
	counter("seatwin_checkpoint_saves_total", "vessel history checkpoints written", float64(s.CheckpointSaves))
	counter("seatwin_checkpoint_restores_total", "vessel history windows rehydrated on spawn", float64(s.CheckpointRestores))
	counter("seatwin_checkpoint_failures_total", "checkpoint saves or loads lost after retries", float64(s.CheckpointFailures))
	gauge("seatwin_live_actors", "currently running actors", float64(s.LiveActors))
	fmt.Fprintf(&b, "# HELP seatwin_processing_seconds vessel-actor message processing time since process start\n")
	fmt.Fprintf(&b, "# TYPE seatwin_processing_seconds summary\n")
	for _, q := range []struct {
		label string
		v     time.Duration
	}{{"0.5", s.Latency.P50}, {"0.95", s.Latency.P95}, {"0.99", s.Latency.P99}} {
		fmt.Fprintf(&b, "seatwin_processing_seconds{quantile=%q} %g\n", q.label, q.v.Seconds())
	}
	fmt.Fprintf(&b, "seatwin_processing_seconds_count %d\n", s.Latency.Count)
	fmt.Fprintf(&b, "# HELP seatwin_svrf_infer_seconds model inference time within vessel-actor processing since process start\n")
	fmt.Fprintf(&b, "# TYPE seatwin_svrf_infer_seconds summary\n")
	for _, q := range []struct {
		label string
		v     time.Duration
	}{{"0.5", s.InferLatency.P50}, {"0.95", s.InferLatency.P95}, {"0.99", s.InferLatency.P99}} {
		fmt.Fprintf(&b, "seatwin_svrf_infer_seconds{quantile=%q} %g\n", q.label, q.v.Seconds())
	}
	fmt.Fprintf(&b, "seatwin_svrf_infer_seconds_count %d\n", s.InferLatency.Count)
	// Event-detection layer (DESIGN.md §16): per-family detector update
	// summaries plus the candidate-pair funnel and occupancy. Exported
	// unconditionally (all zero before the first report) so dashboards
	// never hit a missing series.
	for _, fam := range []struct {
		name string
		d    DetectionStats
	}{{"proximity", s.ProximityDetection}, {"collision", s.CollisionDetection}} {
		base := "seatwin_events_" + fam.name
		fmt.Fprintf(&b, "# HELP %s_update_seconds %s detector update time per report since process start\n", base, fam.name)
		fmt.Fprintf(&b, "# TYPE %s_update_seconds summary\n", base)
		for _, q := range []struct {
			label string
			v     time.Duration
		}{{"0.5", fam.d.UpdateLatency.P50}, {"0.95", fam.d.UpdateLatency.P95}, {"0.99", fam.d.UpdateLatency.P99}} {
			fmt.Fprintf(&b, "%s_update_seconds{quantile=%q} %g\n", base, q.label, q.v.Seconds())
		}
		fmt.Fprintf(&b, "%s_update_seconds_count %d\n", base, fam.d.UpdateLatency.Count)
		counter(base+"_candidates_total", fam.name+" pair candidates surviving the spatial probe", float64(fam.d.Candidates))
		counter(base+"_pairs_deferred_total", fam.name+" candidate pairs left to the cell that owns them", float64(fam.d.Deferred))
		counter(base+"_pairs_checked_total", fam.name+" candidate pairs fully distance-checked", float64(fam.d.Checked))
		counter(base+"_evictions_total", "stale "+fam.name+" detector entries evicted", float64(fam.d.Evicted))
		gauge(base+"_tracked", "entries tracked across live "+fam.name+" cells", float64(fam.d.Tracked))
	}
	if hub := a.p.cfg.Feed; hub != nil {
		fs := hub.Snapshot()
		gauge("seatwin_feed_subscribers", "live feed subscribers connected", float64(fs.Subscribers))
		counter("seatwin_feed_subscribers_total", "live feed subscribers ever connected", float64(fs.TotalSubs))
		counter("seatwin_feed_frames_published_total", "frames entering the feed hub", float64(fs.Published))
		counter("seatwin_feed_frames_fanned_total", "frame deliveries enqueued to subscriber rings", float64(fs.Fanned))
		counter("seatwin_feed_frames_dropped_total", "frames evicted by drop-oldest overflow", float64(fs.Dropped))
		counter("seatwin_feed_frames_conflated_total", "frames conflated in place by key", float64(fs.Conflated))
		counter("seatwin_feed_disconnects_total", "slow consumers force-disconnected", float64(fs.Disconnected))
		gauge("seatwin_feed_fanout_p99_seconds", "p99 hub fan-out latency per publish since process start", fs.FanoutP99.Seconds())
		if rs := hub.RelayStats(); rs.Relays > 0 {
			gauge("seatwin_feed_relays", "relay tiers attached to the hub", float64(rs.Relays))
			gauge("seatwin_feed_relay_subscribers", "local subscribers behind relay tiers", float64(rs.Subscribers))
			counter("seatwin_feed_relay_frames_total", "frames pumped through relay tiers", float64(rs.Relayed))
			counter("seatwin_feed_relay_fanned_total", "frame deliveries enqueued to relay-local rings", float64(rs.Fanned))
		}
	}
	vs := a.p.views.Stats()
	gauge("seatwin_views_epoch", "current materialized-view epoch", float64(vs.Epoch))
	gauge("seatwin_views_epoch_age_seconds", "age of the serving snapshots", vs.EpochAge.Seconds())
	counter("seatwin_views_refreshes_total", "snapshot rebuild-and-swap cycles", float64(vs.Refreshes))
	counter("seatwin_views_states_applied_total", "vessel state deltas staged into the views", float64(vs.StatesApplied))
	counter("seatwin_views_events_applied_total", "events staged into the views", float64(vs.EventsApplied))
	gauge("seatwin_views_refresh_mean_seconds", "mean snapshot rebuild latency", vs.RefreshMean.Seconds())
	gauge("seatwin_views_refresh_p99_seconds", "p99 snapshot rebuild latency since process start", vs.RefreshP99.Seconds())
	gauge("seatwin_views_snapshot_bytes", "pre-encoded bytes across current snapshots", float64(vs.SnapshotBytes))
	gauge("seatwin_views_vessels", "vessels in the current world-view snapshot", float64(vs.Vessels))
	gauge("seatwin_views_cells", "hex cells in the current region snapshot", float64(vs.Cells))
	gauge("seatwin_views_events_window", "events in the current recent-events window", float64(vs.EventsWindow))
	if hub := a.p.cfg.Feed; hub != nil {
		counter("seatwin_views_relay_conflation_drops_total",
			"upstream frames conflated away or evicted in relay tiers before local fan-out",
			float64(hub.RelayStats().ConflationDrops))
	}
	if in := a.p.cfg.Chaos; in != nil {
		cs := in.Stats()
		counter("seatwin_chaos_errors_total", "chaos-injected operation errors", float64(cs.Errors))
		counter("seatwin_chaos_panics_total", "chaos-injected panics", float64(cs.Panics))
		counter("seatwin_chaos_delays_total", "chaos-injected latency delays", float64(cs.Delays))
		counter("seatwin_chaos_truncations_total", "chaos-injected broker truncations", float64(cs.Truncations))
	}
	if cs := s.Cluster; cs != nil {
		gauge("seatwin_cluster_epoch", "placement epoch in effect on this worker", float64(cs.Epoch))
		gauge("seatwin_cluster_partitions", "cluster partition count", float64(cs.Partitions))
		gauge("seatwin_cluster_owned_partitions", "partitions this worker owns", float64(cs.OwnedPartitions))
		gauge("seatwin_cluster_pending_forwards", "cross-partition forwards queued or in flight", float64(cs.PendingForwards))
		counter("seatwin_cluster_forwards_total", "records forwarded to foreign partitions", float64(cs.Forwards))
		counter("seatwin_cluster_forward_drops_total", "forwards lost after retry exhaustion", float64(cs.ForwardDrops))
		counter("seatwin_cluster_received_total", "records consumed from owned partition topics", float64(cs.Received))
		counter("seatwin_cluster_fenced_total", "records abandoned on ownership loss", float64(cs.Fenced))
		counter("seatwin_cluster_rebalances_total", "assignments applied by this worker", float64(cs.Rebalances))
	}
	// Training counters (process-wide recorder; all zero in a process
	// that never trains). Exported unconditionally so dashboards can
	// alert on "no retrain in N days" without a missing-series case.
	ts := s.Train
	counter("seatwin_train_runs_total", "completed S-VRF training runs", float64(ts.Runs))
	counter("seatwin_train_epochs_total", "training epochs finished", float64(ts.Epochs))
	counter("seatwin_train_batches_total", "optimiser steps taken", float64(ts.Batches))
	counter("seatwin_train_samples_total", "training samples consumed (each epoch visit counts)", float64(ts.Samples))
	counter("seatwin_train_clip_events_total", "batches whose gradient hit the clip bound", float64(ts.ClipEvents))
	counter("seatwin_train_lanes_total", "L-VRF lane graphs built", float64(ts.Lanes))
	counter("seatwin_train_seconds_total", "wall time spent inside training epochs", ts.TrainSeconds)
	gauge("seatwin_train_last_loss", "most recent per-epoch mean training loss", ts.LastLoss)
	gauge("seatwin_train_samples_per_second", "lifetime mean training throughput", ts.SamplesPerSec)
	// Model-lifecycle counters (same unconditional-export rationale):
	// the background trainer's retrain/shadow-eval/hot-swap loop.
	ls := s.Lifecycle
	counter("seatwin_lifecycle_cycles_total", "completed retrain cycles (including skips)", float64(ls.Cycles))
	counter("seatwin_lifecycle_promotions_total", "candidates that won the shadow eval and were hot-swapped", float64(ls.Promotions))
	counter("seatwin_lifecycle_rejections_total", "candidates rejected by the promotion gate", float64(ls.Rejections))
	counter("seatwin_lifecycle_skips_total", "cycles skipped for lack of replayed history", float64(ls.Skips))
	counter("seatwin_lifecycle_replay_records_total", "records replayed from broker-retained history", float64(ls.ReplayRecords))
	counter("seatwin_lifecycle_lane_rebuilds_total", "L-VRF lane-graph rebuilds published", float64(ls.LaneRebuilds))
	counter("seatwin_lifecycle_retrain_seconds_total", "wall time spent training candidates", ls.RetrainSeconds)
	counter("seatwin_lifecycle_eval_seconds_total", "wall time spent shadow-evaluating candidates", ls.EvalSeconds)
	gauge("seatwin_lifecycle_generation", "live model weight generation", float64(ls.Generation))
	gauge("seatwin_lifecycle_last_live_ade_meters", "live model mean ADE on the most recent holdout", ls.LastLiveADE)
	gauge("seatwin_lifecycle_last_candidate_ade_meters", "candidate mean ADE on the most recent holdout", ls.LastCandidateADE)
	// Consumer-group lag, one gauge sample per topic+group pair, across
	// every broker the pipeline touches (cluster forward topics and the
	// dedicated output streams).
	emittedLag := false
	lag := func(bk *broker.Broker) {
		if bk == nil {
			return
		}
		for _, gl := range bk.GroupLags() {
			if !emittedLag {
				fmt.Fprintf(&b, "# HELP seatwin_broker_lag records committed offsets trail the log end by, per topic and group\n")
				fmt.Fprintf(&b, "# TYPE seatwin_broker_lag gauge\n")
				emittedLag = true
			}
			fmt.Fprintf(&b, "seatwin_broker_lag{topic=%q,group=%q} %d\n", gl.Topic, gl.Group, gl.Lag)
		}
	}
	if cl := a.p.cl; cl != nil {
		lag(cl.cfg.Broker)
	}
	if ob := a.p.cfg.OutputBroker; ob != nil && (a.p.cl == nil || ob != a.p.cl.cfg.Broker) {
		lag(ob)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		log.Printf("api: write metrics: %v", err)
	}
}
