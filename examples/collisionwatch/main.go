// Collisionwatch: the Figure 4e/4f scenario — stream the synthetic
// Aegean proximity dataset through the pipeline and watch the event
// list fill with live proximity detections and forecast collisions,
// delivered both through the in-memory event log and the store's
// pub/sub channel (the path a UI would subscribe to).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/fleetsim"
	"seatwin/internal/pipeline"
)

func main() {
	p, err := pipeline.New(pipeline.DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// A UI would SUBSCRIBE to this channel over the RESP socket; here
	// we subscribe in-process.
	notifications, cancel := p.Store().Subscribe("events", 1024)
	defer cancel()
	go func() {
		for m := range notifications {
			fmt.Printf("  [pubsub] %s\n", m.Payload)
		}
	}()

	// Generate the §6.2-style scenario: groups of vessels converging on
	// meeting points within the next half hour.
	cfg := fleetsim.DefaultProximityConfig()
	cfg.Groups4, cfg.Groups3, cfg.CrossingPairs = 3, 4, 2
	ds := fleetsim.GenerateProximity(cfg)
	fmt.Printf("scenario: %d vessels, %d ground-truth encounters ahead\n\n",
		len(ds.Vessels), len(ds.Truth))

	// Replay every vessel's AIS history in global time order, then ten
	// more minutes of ground-truth motion so live encounters actually
	// happen (the histories end at the evaluation time, before the
	// staged meetings).
	var all []ais.PositionReport
	for _, h := range ds.History {
		all = append(all, h...)
	}
	for mmsi, track := range ds.FullTracks {
		for i, tp := range track {
			if tp.At.Before(ds.EvalTime) || tp.At.After(ds.EvalTime.Add(10*time.Minute)) || i%6 != 0 {
				continue // post-eval motion, one report per ~30 s
			}
			all = append(all, ais.PositionReport{
				MMSI: mmsi, Lat: tp.Pos.Lat, Lon: tp.Pos.Lon,
				SOG: tp.SOG, COG: tp.COG, Status: ais.StatusUnderWayEngine,
				Timestamp: tp.At,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Timestamp.Before(all[j].Timestamp) })
	for _, r := range all {
		p.Ingest(r)
	}
	p.Drain(10 * time.Second)

	// The event list (Figure 4f): forecast collisions with estimated
	// time, location and the MMSIs involved.
	fmt.Println("\nforecast collisions:")
	for _, e := range p.EventLog().ByKind(events.KindCollisionForecast) {
		fmt.Printf("  %s  %s x %s  est. %s  sep %.0f m  at %s\n",
			e.Kind, e.A, e.B, e.At.Format("15:04:05"), e.Meters, e.Pos)
	}
	fmt.Println("\nlive proximity events:")
	for _, e := range p.EventLog().ByKind(events.KindProximity) {
		fmt.Printf("  %s  %s x %s  %.0f m  at %s\n",
			e.Kind, e.A, e.B, e.Meters, e.Pos)
	}

	s := p.Stats()
	fmt.Printf("\n%d messages -> %d forecasts -> %d events\n",
		s.Messages, s.Forecasts, s.Events)
}
