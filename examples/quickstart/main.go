// Quickstart: the smallest end-to-end use of the public pipeline — feed
// AIS position reports for a handful of vessels, let the vessel actors
// forecast their routes, and read the resulting state back from the
// middleware store.
package main

import (
	"fmt"
	"log"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/pipeline"
)

func main() {
	// 1. Build the pipeline. The forecaster is shared by every vessel
	// actor; here the linear kinematic baseline keeps the example
	// instant — swap in a trained S-VRF model via svrf.LoadFile +
	// events.SVRFForecaster{Model: m} for learned forecasts.
	p, err := pipeline.New(pipeline.DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// 2. Stream a few vessels sailing out of Piraeus. Each report is
	// routed to that vessel's actor, which forecasts 30 minutes ahead.
	start := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	fleet := []struct {
		mmsi ais.MMSI
		name string
		cog  float64
		sog  float64
	}{
		{237000001, "BLUE STAR DELOS", 140, 18},
		{237000002, "AEGEAN TRADER 7", 95, 12},
		{237000003, "NORDIC WAVE 3", 200, 9},
	}
	origin := geo.Point{Lat: 37.90, Lon: 23.65}
	for _, v := range fleet {
		p.Ingest(ais.StaticVoyage{MMSI: v.mmsi, Name: v.name, ShipType: ais.TypeCargo})
		for i := 0; i < 5; i++ {
			at := start.Add(time.Duration(i) * 30 * time.Second)
			pos := geo.DeadReckon(origin, v.sog, v.cog, at.Sub(start).Seconds())
			p.Ingest(ais.PositionReport{
				MMSI: v.mmsi, Lat: pos.Lat, Lon: pos.Lon,
				SOG: v.sog, COG: v.cog, Status: ais.StatusUnderWayEngine,
				Timestamp: at,
			})
		}
	}
	p.Drain(5 * time.Second)

	// 3. Read the digital-twin state back from the store — the same
	// data the HTTP API serves to the UI.
	for _, v := range fleet {
		h, err := p.Store().HGetAll("vessel:" + v.mmsi.String())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s)\n", h["name"], v.mmsi)
		fmt.Printf("  position (%s, %s)  %s kn on %s°  [%s]\n",
			h["lat"], h["lon"], h["sog"], h["cog"], h["status"])
		fmt.Printf("  30-minute forecast: %s\n\n", h["forecast"])
	}

	s := p.Stats()
	fmt.Printf("pipeline: %d messages, %d forecasts, %d live actors, mean processing %v\n",
		s.Messages, s.Forecasts, s.LiveActors, s.Latency.Mean.Round(time.Microsecond))
}
