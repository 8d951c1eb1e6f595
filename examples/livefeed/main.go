// Livefeed: the push side of the middleware — run the proximity
// scenario through the pipeline with a live-feed hub attached, then
// consume the stream like an external UI would: one subscriber over the
// length-prefixed JSON TCP protocol (all event classes plus a region),
// and one over the SSE endpoint (a single vessel). Compare with
// collisionwatch, which polls the same data through the kvstore.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/pipeline"
)

func main() {
	hub := feed.NewHub(feed.Options{RegionResolution: 7})
	defer hub.Close()

	cfg := pipeline.DefaultConfig(events.NewKinematicForecaster())
	cfg.Feed = hub
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	// Both transports, exactly as deployed: TCP feed server + HTTP API.
	feedSrv := feed.NewServer(hub)
	go feedSrv.ListenAndServe("127.0.0.1:0")
	defer feedSrv.Close()
	api := pipeline.NewAPI(p)
	go api.ListenAndServe("127.0.0.1:0")
	defer api.Close()
	for feedSrv.Addr() == nil || api.Addr() == nil {
		time.Sleep(5 * time.Millisecond)
	}

	// The §6.2-style scenario, sized like collisionwatch: groups of
	// vessels converging on meeting points within the next half hour.
	scfg := fleetsim.DefaultProximityConfig()
	scfg.Groups4, scfg.Groups3, scfg.CrossingPairs = 3, 4, 2
	ds := fleetsim.GenerateProximity(scfg)
	// Watch a vessel with a ground-truth encounter ahead, and the region
	// cell it is sailing through at the evaluation time.
	watched := ds.Truth[0].A
	hist := ds.History[watched]
	region := geo.Point{Lat: hist[len(hist)-1].Lat, Lon: hist[len(hist)-1].Lon}

	// Subscriber 1 (TCP): every event class, plus the watched region,
	// conflating state frames per vessel.
	tcpClient, err := feed.Dial(feedSrv.Addr().String(), feed.Request{
		Events: []string{"all"},
		Regions: []string{
			fmt.Sprintf("%.3f,%.3f", region.Lat, region.Lon),
		},
		Policy: "conflate",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tcpClient.Close()
	fmt.Printf("tcp subscriber topics: %v\n", tcpClient.Topics)
	go func() {
		for {
			raw, err := tcpClient.Next()
			if err != nil {
				return
			}
			fmt.Printf("  [tcp] %s\n", truncate(string(raw), 140))
		}
	}()

	// Subscriber 2 (SSE): follow the watched vessel itself.
	sseURL := fmt.Sprintf("http://%s/api/stream?vessel=%s&events=all", api.Addr(), watched)
	go tailSSE(sseURL)
	// Replay only once both subscribers are attached, so neither misses
	// the action.
	for deadline := time.Now().Add(5 * time.Second); hub.Snapshot().Subscribers < 2; {
		if time.Now().After(deadline) {
			log.Fatal("subscribers failed to attach")
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Printf("scenario: %d vessels, watching %s over SSE\n\n", len(ds.Vessels), watched)

	// Replay the histories plus ten minutes of ground truth in global
	// time order, so live encounters fire while the subscribers watch.
	var all []ais.PositionReport
	for _, h := range ds.History {
		all = append(all, h...)
	}
	for mmsi, track := range ds.FullTracks {
		for i, tp := range track {
			if tp.At.Before(ds.EvalTime) || tp.At.After(ds.EvalTime.Add(10*time.Minute)) || i%6 != 0 {
				continue
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
	p.Drain(60 * time.Second)
	time.Sleep(500 * time.Millisecond) // let the consumers print

	s := hub.Snapshot()
	fmt.Printf("\nfeed: %d subscribers, %d published, %d fanned, %d conflated, %d dropped, fan-out p99 %v\n",
		s.Subscribers, s.Published, s.Fanned, s.Conflated, s.Dropped, s.FanoutP99)
}

// tailSSE prints the event-stream frames of one SSE subscription.
func tailSSE(url string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Printf("sse: %v", err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			fmt.Printf("  [sse] %s\n", truncate(strings.TrimPrefix(line, "data: "), 140))
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
