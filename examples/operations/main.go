// Operations: one scenario served by a single pipeline — a head-on
// pair south of Piraeus and a stream of arrivals into the port. The
// collision actors forecast the encounters, and the port-congestion
// monitor (the §7 extension that `seatwin -monitor-ports` runs in
// production) counts and predicts arrivals from the same route
// forecasts.
package main

import (
	"fmt"
	"log"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/pipeline"
)

func main() {
	start := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	piraeus := congestion.Port{
		Name: "Piraeus", Pos: geo.Point{Lat: 37.925, Lon: 23.600},
		Radius: 6000, Capacity: 3,
	}

	cfg := pipeline.DefaultConfig(events.NewKinematicForecaster())
	cfg.Ports = []congestion.Port{piraeus}
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// Two vessels on a head-on collision course south of the port, plus
	// a stream of arrivals into Piraeus.
	meet := geo.Point{Lat: 37.70, Lon: 23.55}
	feed := func(mmsi ais.MMSI, from geo.Point, cog, sog float64) {
		for i := 0; i < 4; i++ {
			at := start.Add(time.Duration(i) * 30 * time.Second)
			pos := geo.DeadReckon(from, sog, cog, at.Sub(start).Seconds())
			p.Ingest(ais.PositionReport{
				MMSI: mmsi, Lat: pos.Lat, Lon: pos.Lon, SOG: sog, COG: cog,
				Status: ais.StatusUnderWayEngine, Timestamp: at,
			})
		}
	}
	feed(237000100, geo.DeadReckon(meet, 12, 270, 900), 90, 12)
	feed(237000200, geo.DeadReckon(meet, 12, 90, 900), 270, 12)
	// Inbound traffic for the congestion monitor.
	for i := 0; i < 5; i++ {
		bearing := 120.0 + float64(i)*25
		d := 12*geo.KnotsToMetersPerSecond*float64(8+4*i)*60 + piraeus.Radius
		from := geo.Destination(piraeus.Pos, bearing, d)
		feed(ais.MMSI(237000300+i), from, geo.InitialBearing(from, piraeus.Pos), 12)
	}
	p.Drain(5 * time.Second)

	// 1. The event list surfaces the forecast collision.
	collisions := p.EventLog().ByKind(events.KindCollisionForecast)
	if len(collisions) == 0 {
		log.Fatal("no collision forecast — scenario broken")
	}
	e := collisions[0]
	fmt.Printf("forecast collision: %s x %s at %s (separation %.0f m)\n",
		e.A, e.B, e.At.Format("15:04:05"), e.Meters)

	// 2. Port congestion from the same forecasts.
	for _, st := range p.Congestion().Snapshot(time.Time{}) {
		flag := ""
		if st.Congested() {
			flag = "  ** CONGESTED **"
		}
		fmt.Printf("port %s: %d berthed/anchored, %d arriving within 30 min (capacity %d)%s\n",
			st.Port.Name, st.Present, st.Arriving, st.Port.Capacity, flag)
	}
}
