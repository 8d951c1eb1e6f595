package pipeline

import (
	"sync"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
)

// TestRouteCacheServesWarmLookups proves the cache actually carries the
// hot path: after first contact the vessel route resolves from the
// cache and returns the identical PID the registry holds.
func TestRouteCacheServesWarmLookups(t *testing.T) {
	p := newTestPipeline(t)
	const mmsi ais.MMSI = 239000777
	feedTrack(p, mmsi, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 1, time.Second, t0)
	p.Drain(5 * time.Second)

	cached := p.vesselRoutes.get(uint64(mmsi))
	if cached == nil {
		t.Fatal("vessel route not cached after ingest")
	}
	if reg, spawned := p.System().GetOrSpawn(vesselActorName(mmsi), nil); spawned || reg != cached {
		t.Fatalf("cache (%v) and registry (%v) disagree", cached, reg)
	}
	if got := p.vesselActor(mmsi); got != cached {
		t.Fatalf("vesselActor returned %v, want cached %v", got, cached)
	}
}

// TestRouteCacheInvalidatedOnStop proves a stopped (passivated) actor's
// route is dropped through the unregister hook and never served again:
// a re-ingest after the stop must reach a fresh actor, not the corpse.
func TestRouteCacheInvalidatedOnStop(t *testing.T) {
	p := newTestPipeline(t)
	const mmsi ais.MMSI = 239000778
	feedTrack(p, mmsi, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 1, time.Second, t0)
	p.Drain(5 * time.Second)

	old := p.vesselRoutes.get(uint64(mmsi))
	if old == nil {
		t.Fatal("vessel route not cached after ingest")
	}
	p.System().Stop(old)
	for deadline := time.Now().Add(2 * time.Second); p.vesselRoutes.get(uint64(mmsi)) != nil; {
		if time.Now().After(deadline) {
			t.Fatalf("dead PID %v still served from route cache", old)
		}
		time.Sleep(time.Millisecond)
	}

	// Re-ingest: the slow path must spawn a fresh actor and the report
	// must land in the store (a resurrected corpse would black-hole it).
	at := t0.Add(time.Hour)
	feedTrack(p, mmsi, geo.Point{Lat: 38.0, Lon: 25.0}, 90, 12, 1, time.Second, at)
	p.Drain(5 * time.Second)
	if fresh := p.vesselActor(mmsi); fresh == old {
		t.Fatal("route cache resurrected a stopped actor")
	}
	h, err := p.Store().HGetAll("vessel:" + mmsi.String())
	if err != nil || h["ts"] != at.Format(time.RFC3339) {
		t.Fatalf("post-restart report not persisted: ts=%q err=%v", h["ts"], err)
	}
}

// TestRouteCacheChurnUnderRace hammers spawn/stop/re-ingest cycles from
// concurrent goroutines (run under -race in CI): ingest workers resolve
// vessels through the cache while a reaper keeps stopping those same
// actors. The invariant is liveness — after the churn stops, a final
// settled round must still land every vessel's state in the store, so a
// cached PID can never be permanently resurrected after passivation.
func TestRouteCacheChurnUnderRace(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.DisableEventFanout = true
	cfg.CheckpointInterval = -1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	const vessels = 8
	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	reaperDone := make(chan struct{})

	// Reaper: keeps killing the vessel actors mid-flight.
	go func() {
		defer close(reaperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < vessels; i++ {
				if pid := p.vesselRoutes.get(239100000 + uint64(i)); pid != nil {
					p.System().Stop(pid)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Ingest workers: two writers racing the reaper through the cache.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				at := t0.Add(time.Duration(r) * time.Second)
				for i := 0; i < vessels; i++ {
					p.Ingest(ais.PositionReport{
						MMSI: ais.MMSI(239100000 + i),
						Lat:  37.5, Lon: 24.5, SOG: 10, COG: 90,
						Status: ais.StatusUnderWayEngine, Timestamp: at,
					}, at)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-reaperDone

	// Settled rounds: the reaper is gone, but a Stop it issued may still
	// be completing, so one delivery can race a dying actor (the broker
	// redelivers in production). The liveness invariant under test is
	// that re-ingest lands within a bounded number of rounds — a cache
	// that served a permanently resurrected PID would black-hole every
	// attempt.
	for i := 0; i < vessels; i++ {
		mmsi := ais.MMSI(239100000 + i)
		key := "vessel:" + mmsi.String()
		landed := false
		for attempt := 0; attempt < 50 && !landed; attempt++ {
			at := t0.Add(time.Hour + time.Duration(attempt)*time.Second)
			p.Ingest(ais.PositionReport{
				MMSI: mmsi, Lat: 38.0, Lon: 25.0, SOG: 10, COG: 90,
				Status: ais.StatusUnderWayEngine, Timestamp: at,
			}, at)
			p.Drain(5 * time.Second)
			h, err := p.Store().HGetAll(key)
			if err != nil {
				t.Fatal(err)
			}
			landed = h["ts"] == at.Format(time.RFC3339)
		}
		if !landed {
			t.Fatalf("vessel %d: settled reports never landed after churn", i)
		}
	}
}

// TestRouteCachePassivationDropsCellRoutes proves cell/collision actor
// passivation (the idle-timeout path, not an explicit Stop) flows
// through the unregister hook into the route caches.
func TestRouteCachePassivationDropsCellRoutes(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.CellIdleTimeout = 50 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	feedTrack(p, 239000779, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 3, 30*time.Second, t0)
	p.Drain(5 * time.Second)
	if p.proximityRoutes.size() == 0 && p.collisionRoutes.size() == 0 {
		t.Fatal("expected cached cell routes after fan-out")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.proximityRoutes.size() == 0 && p.collisionRoutes.size() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cell routes not invalidated by passivation: px=%d cx=%d",
		p.proximityRoutes.size(), p.collisionRoutes.size())
}
