package pipeline

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/checkpoint"
	"seatwin/internal/cluster"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
)

// newClusterWorker builds one pipeline joined to coord over the shared
// store and broker. CheckpointInterval is 1 so every accepted report
// persists a window — partition handoff must never depend on lucky
// checkpoint timing.
func newClusterWorker(t *testing.T, store *kvstore.Store, br *broker.Broker, coord *cluster.Coordinator, id string, f events.TrackForecaster, in *chaos.Injector) *Pipeline {
	t.Helper()
	cfg := DefaultConfig(f)
	cfg.Store = store
	cfg.CheckpointInterval = 1
	cfg.Chaos = in
	cfg.Cluster = &ClusterConfig{
		WorkerID:          id,
		Membership:        coord,
		Partitions:        8,
		Broker:            br,
		HeartbeatInterval: 100 * time.Millisecond,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// clusterReport renders report i of a vessel's straight 12 kn track,
// 30 s apart so every report survives the S-VRF downsampler.
func clusterReport(mmsi ais.MMSI, start geo.Point, i int) ais.PositionReport {
	at := t0.Add(time.Duration(i) * 30 * time.Second)
	pos := geo.DeadReckon(start, 12, 90, at.Sub(t0).Seconds())
	return ais.PositionReport{
		MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: 90,
		Status: ais.StatusUnderWayEngine, Timestamp: at,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// partLagsZero reports whether every forward-topic consumer group has
// consumed and committed everything produced so far.
func partLagsZero(br *broker.Broker) bool {
	for _, gl := range br.GroupLags() {
		if strings.HasPrefix(gl.Topic, "part/") && gl.Lag > 0 {
			return false
		}
	}
	return true
}

// drainCluster quiesces a set of workers sharing br: each worker's own
// Drain covers its actors and outbound forward queue, but a flushed
// forward only creates work on the receiving worker, so the cluster is
// only quiet when a full round of drains leaves every forward topic
// fully consumed and no new forwards pending. Two consecutive quiet
// rounds guard against a cascade caught mid-hop.
func drainCluster(t *testing.T, br *broker.Broker, workers ...*Pipeline) {
	t.Helper()
	quiet := func() bool {
		for _, p := range workers {
			p.Drain(10 * time.Second)
		}
		if !partLagsZero(br) {
			return false
		}
		for _, p := range workers {
			if cs := p.Stats().Cluster; cs != nil && cs.PendingForwards != 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if quiet() && quiet() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("cluster never quiesced")
}

// TestClusterTwoWorkerFailover is the headline cluster scenario: a
// fleet warmed up on one worker is split when a second joins (moved
// vessels rehydrate from shared checkpoints), forwarding routes every
// report to its owner regardless of which worker ingested it, and a
// worker crash reassigns its partitions with zero lost reports and no
// double-forecast. Forecast counts are exact: with an S-VRF forecaster
// every report past warmup yields exactly one forecast, so lost or
// duplicated deliveries shift the total.
func TestClusterTwoWorkerFailover(t *testing.T) {
	store := kvstore.New()
	defer store.Close()
	br := broker.New()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions: 8,
		// Generous lease: the race detector plus a single shared
		// scheduler can starve heartbeats for a while; only the
		// explicit FailWorker below may expire.
		HeartbeatTimeout: 5 * time.Second,
		SweepInterval:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	const fleet = 24
	mmsis := make([]ais.MMSI, fleet)
	starts := make([]geo.Point, fleet)
	for i := range mmsis {
		mmsis[i] = ais.MMSI(700000001 + i)
		starts[i] = geo.Point{Lat: 34 + float64(i%6)*0.8, Lon: 20 + float64(i/6)*0.8}
	}

	// Phase 1: worker A alone owns everything; warm the whole fleet
	// past the S-VRF threshold.
	a := newClusterWorker(t, store, br, coord, "a", svrfConfig(t, store).Forecaster, nil)
	defer a.Shutdown(5 * time.Second)
	for i, m := range mmsis {
		for rep := 0; rep < 8; rep++ {
			r := clusterReport(m, starts[i], rep)
			a.Ingest(r)
		}
	}
	drainCluster(t, br, a)
	s1 := a.Stats().Forecasts
	if s1 == 0 {
		t.Fatal("warmup produced no forecasts — the fleet never crossed MinLiveReports")
	}
	if got := a.Stats().Cluster.OwnedPartitions; got != 8 {
		t.Fatalf("lone worker owns %d/8 partitions", got)
	}

	// Phase 2: a second worker joins; the sticky rebalance splits the
	// ring 4/4 and B rehydrates the moved vessels from checkpoints.
	b := newClusterWorker(t, store, br, coord, "b", svrfConfig(t, store).Forecaster, nil)
	defer b.Shutdown(5 * time.Second)
	waitFor(t, 15*time.Second, "4/4 partition split", func() bool {
		ca, cb := a.Stats().Cluster, b.Stats().Cluster
		return ca.OwnedPartitions == 4 && cb.OwnedPartitions == 4
	})
	var movedToB int
	for _, m := range mmsis {
		if b.OwnsKey(uint64(m)) {
			movedToB++
		}
	}
	if movedToB == 0 || movedToB == fleet {
		t.Fatalf("degenerate split: %d/%d vessels moved to b", movedToB, fleet)
	}
	waitFor(t, 15*time.Second, "moved vessels to rehydrate on b", func() bool {
		return b.Stats().CheckpointRestores >= int64(movedToB)
	})
	// A passivated every vessel actor it no longer owns.
	waitFor(t, 15*time.Second, "a to passivate the vessels b owns", func() bool {
		for id := range a.registered(kindVessel) {
			if b.OwnsKey(id) {
				return false
			}
		}
		return true
	})

	// Feed one report per vessel through the worker that does NOT own
	// it: every single report must cross the forward path and still
	// reach its owner exactly once.
	for i, m := range mmsis {
		r := clusterReport(m, starts[i], 8)
		if a.OwnsKey(uint64(m)) {
			b.Ingest(r)
		} else {
			a.Ingest(r)
		}
	}
	drainCluster(t, br, a, b)
	if ca, cb := a.Stats().Cluster, b.Stats().Cluster; ca.Forwards == 0 || cb.Forwards == 0 {
		t.Fatalf("both workers must forward foreign ingest: a=%d b=%d", ca.Forwards, cb.Forwards)
	}
	s2 := a.Stats().Forecasts + b.Stats().Forecasts
	if want := s1 + fleet; s2 != want {
		t.Fatalf("after split: forecasts %d, want exactly %d (lost or duplicated reports)", s2, want)
	}

	// Phase 3: worker A crashes (no leave, no passivation). The lease
	// expires, B gains A's partitions and rehydrates A's vessels; a
	// final round of reports through B forecasts once more per vessel.
	a.FailWorker()
	waitFor(t, 30*time.Second, "b to own all partitions after a's crash", func() bool {
		return b.Stats().Cluster.OwnedPartitions == 8
	})
	waitFor(t, 15*time.Second, "the whole fleet to rehydrate on b", func() bool {
		return b.Stats().CheckpointRestores >= int64(fleet)
	})
	for i, m := range mmsis {
		r := clusterReport(m, starts[i], 9)
		b.Ingest(r)
	}
	drainCluster(t, br, b)
	s3 := a.Stats().Forecasts + b.Stats().Forecasts
	if want := s2 + fleet; s3 != want {
		t.Fatalf("after failover: forecasts %d, want exactly %d (lost or duplicated reports)", s3, want)
	}

	// The shared checkpoints carry every vessel's final report: a late
	// stale write (A's leftover actors) must never regress them.
	wantTS := strconv.FormatInt(t0.Add(9*30*time.Second).UnixNano(), 10)
	for _, m := range mmsis {
		v, ok, err := store.HGet(checkpoint.Key(m), "last_ts")
		if err != nil || !ok {
			t.Fatalf("vessel %v: no checkpoint after failover (err=%v)", m, err)
		}
		if v != wantTS {
			t.Fatalf("vessel %v: checkpoint last_ts=%s, want %s", m, v, wantTS)
		}
	}
}

// TestDrainWaitsForForwardFlush pins the Drain contract in cluster
// mode: a report accepted for a foreign partition is still in flight
// while it sits in the forward queue, even though no local mailbox
// holds it. A latency-injecting producer keeps the queue occupied long
// after the local actors go idle; Drain must not return until the
// flush finishes.
func TestDrainWaitsForForwardFlush(t *testing.T) {
	store := kvstore.New()
	defer store.Close()
	br := broker.New()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Partitions:       8,
		HeartbeatTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	in := chaos.New(chaos.Policy{Latency: 30 * time.Millisecond, Seed: 7})
	a := newClusterWorker(t, store, br, coord, "a", events.NewKinematicForecaster(), in)
	defer a.Shutdown(5 * time.Second)
	b := newClusterWorker(t, store, br, coord, "b", events.NewKinematicForecaster(), nil)
	defer b.Shutdown(5 * time.Second)
	waitFor(t, 15*time.Second, "4/4 partition split", func() bool {
		return a.Stats().Cluster.OwnedPartitions == 4 && b.Stats().Cluster.OwnedPartitions == 4
	})

	// Reports for vessels A does not own: each one enters A's forward
	// queue and leaves it only through the slow producer. The vessels are
	// 0.1° of latitude apart, out of each other's proximity range: their
	// cell shares still reach A's cells, but no pair event makes A's
	// writer persist through the slow chaos store, which would hold
	// Drain for a minute on its own.
	foreign := 0
	for m := ais.MMSI(820000001); foreign < 40; m++ {
		if a.OwnsKey(uint64(m)) {
			continue
		}
		r := clusterReport(m, geo.Point{Lat: 35 + 0.1*float64(foreign), Lon: 21}, 0)
		a.Ingest(r)
		foreign++
	}

	a.Drain(60 * time.Second)
	cs := a.Stats().Cluster
	if cs.PendingForwards != 0 {
		t.Fatalf("Drain returned with %d forwards still pending", cs.PendingForwards)
	}
	if cs.Forwards != int64(foreign) {
		t.Fatalf("Drain returned before the flush: %d/%d forwards produced", cs.Forwards, foreign)
	}
}

// TestClusterPairEmittedOncePerCooldown counts the collision events of
// one converging pair, in one process and across the two workers of a
// cluster whose cells split the pair's shared cells between them. Each
// vessel reports three times inside one 5-minute cooldown, so each mode
// must report the pair exactly once. Without the owner rule every cell
// holding both forecasts sweeps the pair and each worker's cooldown
// only covers its own cells: the cluster reported the pair once per
// worker. The cell sets that decide the owner ride the Forwarded
// envelope, so the cluster cases also prove they cross the forward
// topic intact; the durable case sends every report and a static
// document through the other worker, so each one crosses a gob-encoded
// forward topic before its owner processes it.
func TestClusterPairEmittedOncePerCooldown(t *testing.T) {
	start := geo.Point{Lat: 35, Lon: 21}
	// Head-on at 12 kn each, 6 km apart: the forecasts meet within
	// 10 minutes.
	tracks := []struct {
		mmsi  ais.MMSI
		start geo.Point
		cog   float64
	}{
		{940000001, start, 90},
		{940000002, geo.Destination(start, 90, 6000), 270},
	}
	report := func(i, step int) ais.PositionReport {
		tr := tracks[i]
		at := t0.Add(time.Duration(step)*30*time.Second + time.Duration(i)*time.Second)
		pos := geo.DeadReckon(tr.start, 12, tr.cog, at.Sub(t0).Seconds())
		return ais.PositionReport{
			MMSI: tr.mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: 12, COG: tr.cog,
			Status: ais.StatusUnderWayEngine, Timestamp: at,
		}
	}
	pairEvents := func(workers ...*Pipeline) int {
		n := 0
		for _, p := range workers {
			for _, e := range p.EventLog().ByKind(events.KindCollisionForecast) {
				if e.PairKey() == (events.Event{A: tracks[0].mmsi, B: tracks[1].mmsi}).PairKey() {
					n++
				}
			}
		}
		return n
	}
	const steps = 3

	t.Run("single-process", func(t *testing.T) {
		p := newTestPipeline(t)
		for step := 0; step < steps; step++ {
			for i := range tracks {
				p.Ingest(report(i, step))
			}
			p.Drain(5 * time.Second)
		}
		if n := pairEvents(p); n != 1 {
			t.Fatalf("pair reported %d times in one cooldown, want 1", n)
		}
	})

	// twoWorkers runs the pair across a two-worker cluster over br and
	// returns the workers. viaOther ingests each report on the worker
	// that does not own its vessel.
	twoWorkers := func(t *testing.T, br *broker.Broker, viaOther bool) (a, b *Pipeline) {
		store := kvstore.New()
		t.Cleanup(store.Close)
		coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
			Partitions:       8,
			HeartbeatTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		a = newClusterWorker(t, store, br, coord, "a", events.NewKinematicForecaster(), nil)
		t.Cleanup(func() { a.Shutdown(5 * time.Second) })
		b = newClusterWorker(t, store, br, coord, "b", events.NewKinematicForecaster(), nil)
		t.Cleanup(func() { b.Shutdown(5 * time.Second) })
		waitFor(t, 15*time.Second, "4/4 partition split", func() bool {
			return a.Stats().Cluster.OwnedPartitions == 4 && b.Stats().Cluster.OwnedPartitions == 4
		})

		// Precondition: the first forecasts share cells on both workers.
		var tracer events.CellTracer
		var sets [2][]uint64
		for i := range tracks {
			r := report(i, 0)
			f, _ := events.NewKinematicForecaster().ForecastTrack([]ais.PositionReport{r})
			sets[i] = tracer.Cells(f, collisionResolution)
		}
		onA, onB := 0, 0
		for _, c := range sets[0] {
			if slices.Contains(sets[1], c) {
				if a.OwnsKey(c) {
					onA++
				} else {
					onB++
				}
			}
		}
		if onA == 0 || onB == 0 {
			t.Fatalf("shared cells do not span both workers: %d on a, %d on b", onA, onB)
		}

		for step := 0; step < steps; step++ {
			for i := range tracks {
				r := report(i, step)
				if a.OwnsKey(uint64(r.MMSI)) != viaOther {
					a.Ingest(r)
				} else {
					b.Ingest(r)
				}
			}
			drainCluster(t, br, a, b)
		}
		if n := pairEvents(a, b); n != 1 {
			t.Fatalf("pair reported %d times in one cooldown across two workers, want 1", n)
		}
		return a, b
	}

	t.Run("two-workers", func(t *testing.T) {
		twoWorkers(t, broker.New(), false)
	})

	t.Run("two-workers-durable", func(t *testing.T) {
		RegisterClusterTypes()
		br, err := broker.OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { br.Close() })
		a, b := twoWorkers(t, br, true)

		// Every report was forwarded once and accepted by its owner only.
		var fwd int64
		for _, p := range []*Pipeline{a, b} {
			owned := int64(0)
			for _, tr := range tracks {
				if p.OwnsKey(uint64(tr.mmsi)) {
					owned += steps
				}
			}
			st := p.Stats()
			if st.Messages != owned {
				t.Fatalf("worker %s accepted %d reports, want the %d of its own vessels", st.Cluster.WorkerID, st.Messages, owned)
			}
			fwd += st.Cluster.Forwards
		}
		if fwd < int64(len(tracks)*steps) {
			t.Fatalf("%d records forwarded, want at least the %d reports", fwd, len(tracks)*steps)
		}

		// A static document ingested on the other worker reaches the
		// owner's statics cache.
		mmsi := tracks[0].mmsi
		owner, other := a, b
		if !a.OwnsKey(uint64(mmsi)) {
			owner, other = b, a
		}
		other.Ingest(ais.StaticVoyage{MMSI: mmsi, Name: "DURABLE", ShipType: 70})
		drainCluster(t, br, a, b)
		if st, ok := owner.Static(mmsi); !ok || st.Name != "DURABLE" || st.ShipType != 70 {
			t.Fatalf("owner's static cache holds %+v (ok=%v), want the forwarded document", st, ok)
		}
		if _, ok := other.Static(mmsi); ok {
			t.Fatal("the forwarding worker cached a static document it does not own")
		}
	})
}
