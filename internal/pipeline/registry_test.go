package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// The registry is the one directory from an entity to its actor: these
// tests keep the checks the former integer route caches in front of it
// had, under their names — warm lookups return the registered PID, a
// stopped actor is never served again, spawn/stop/re-ingest churn
// stays live, and passivation empties the cell tables.

// TestRouteCacheServesWarmLookups: after first contact a vessel lookup
// returns the PID the registry holds under the MMSI, without spawning.
func TestRouteCacheServesWarmLookups(t *testing.T) {
	p := newTestPipeline(t)
	const mmsi ais.MMSI = 239000777
	feedTrack(p, mmsi, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 1, time.Second, t0)
	p.Drain(5 * time.Second)

	reg := p.registered(kindVessel)[uint64(mmsi)]
	if reg == nil || !reg.Alive() {
		t.Fatal("vessel actor not registered after ingest")
	}
	spawned := atomic.LoadInt64(&p.vessels)
	if got := p.vesselActor(mmsi); got != reg {
		t.Fatalf("vesselActor returned %v, want registered %v", got, reg)
	}
	if got := atomic.LoadInt64(&p.vessels); got != spawned {
		t.Fatalf("warm lookup spawned: vessels %d -> %d", spawned, got)
	}
}

// TestWarmLookupsAllocateNothing: routing a report to its vessel, cell
// and collision actors allocates nothing once they exist — the reason
// the registry is keyed by the entity itself.
func TestWarmLookupsAllocateNothing(t *testing.T) {
	p := newTestPipeline(t)
	const mmsi ais.MMSI = 239000780
	cell := hexgrid.LatLonToCell(geo.Point{Lat: 37.5, Lon: 24.5}, 6)
	p.vesselActor(mmsi)
	p.actorOf(kindProximity, uint64(cell))
	p.actorOf(kindCollision, uint64(cell))
	for name, lookup := range map[string]func(){
		"vessel":    func() { p.vesselActor(mmsi) },
		"proximity": func() { p.actorOf(kindProximity, uint64(cell)) },
		"collision": func() { p.actorOf(kindCollision, uint64(cell)) },
	} {
		if avg := testing.AllocsPerRun(1000, lookup); avg != 0 {
			t.Errorf("warm %s lookup allocates %.2f/op, want 0", name, avg)
		}
	}
}

// TestRouteCacheInvalidatedOnStop: once a stopped (passivated) actor is
// dead it is never served again: a re-ingest after the stop must reach
// a fresh actor, not the corpse.
func TestRouteCacheInvalidatedOnStop(t *testing.T) {
	p := newTestPipeline(t)
	const mmsi ais.MMSI = 239000778
	feedTrack(p, mmsi, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 1, time.Second, t0)
	p.Drain(5 * time.Second)

	old := p.registered(kindVessel)[uint64(mmsi)]
	if old == nil {
		t.Fatal("vessel actor not registered after ingest")
	}
	p.System().Stop(old)
	for deadline := time.Now().Add(2 * time.Second); old.Alive(); {
		if time.Now().After(deadline) {
			t.Fatalf("%v did not stop", old)
		}
		time.Sleep(time.Millisecond)
	}
	if p.vesselActor(mmsi) == old {
		t.Fatal("registry served a stopped actor")
	}

	// Re-ingest: the report must land in the store (a resurrected
	// corpse would black-hole it).
	at := t0.Add(time.Hour)
	feedTrack(p, mmsi, geo.Point{Lat: 38.0, Lon: 25.0}, 90, 12, 1, time.Second, at)
	p.Drain(5 * time.Second)
	if fresh := p.vesselActor(mmsi); fresh == old {
		t.Fatal("registry resurrected a stopped actor")
	}
	h, err := p.Store().HGetAll("vessel:" + mmsi.String())
	if err != nil || h["ts"] != at.Format(time.RFC3339) {
		t.Fatalf("post-restart report not persisted: ts=%q err=%v", h["ts"], err)
	}
}

// TestRouteCacheChurnUnderRace hammers spawn/stop/re-ingest cycles from
// concurrent goroutines (run under -race in CI): ingest workers resolve
// vessels through the registry while a reaper keeps stopping those same
// actors. The invariant is liveness — after the churn stops, a final
// settled round must still land every vessel's state in the store, so a
// stopped PID can never be permanently resurrected.
func TestRouteCacheChurnUnderRace(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
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
			for _, pid := range p.registered(kindVessel) {
				p.System().Stop(pid)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Ingest workers: two writers racing the reaper through the registry.
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
					})
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
	// that re-ingest lands within a bounded number of rounds — a
	// directory that served a permanently resurrected PID would
	// black-hole every attempt.
	for i := 0; i < vessels; i++ {
		mmsi := ais.MMSI(239100000 + i)
		key := "vessel:" + mmsi.String()
		landed := false
		for attempt := 0; attempt < 50 && !landed; attempt++ {
			at := t0.Add(time.Hour + time.Duration(attempt)*time.Second)
			p.Ingest(ais.PositionReport{
				MMSI: mmsi, Lat: 38.0, Lon: 25.0, SOG: 10, COG: 90,
				Status: ais.StatusUnderWayEngine, Timestamp: at,
			})
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

// TestRouteCachePassivationDropsCellRoutes: cell and collision actor
// passivation (the idle-timeout path, not an explicit Stop) empties
// their registry tables.
func TestRouteCachePassivationDropsCellRoutes(t *testing.T) {
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.cellIdle = 50 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	feedTrack(p, 239000779, geo.Point{Lat: 37.5, Lon: 24.5}, 90, 12, 3, 30*time.Second, t0)
	p.Drain(5 * time.Second)
	cells := func() (int, int) {
		return len(p.registered(kindProximity)), len(p.registered(kindCollision))
	}
	if px, cx := cells(); px == 0 || cx == 0 {
		t.Fatalf("expected registered cell actors after fan-out: px=%d cx=%d", px, cx)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if px, cx := cells(); px == 0 && cx == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	px, cx := cells()
	t.Fatalf("cell actors still registered after passivation: px=%d cx=%d", px, cx)
}
