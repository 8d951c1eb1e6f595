// Command seatwin-loadgen load-tests the read-side serving layer.
//
// By default it builds the full pipeline in process, prefills it from a
// seeded fleet, keeps the simulator ingesting during measurement, and
// hammers the HTTP API with a mixed GET workload plus a pool of SSE
// subscribers. The phase lands in one JSON report together with two
// microbenchmarks of the serving layer: snapshot-read allocations per
// request and the relay tier's sustained subscriber count.
//
// Usage:
//
//	seatwin-loadgen [-vessels 2000] [-duration 5s] [-conns 16]
//	                [-sse 64] [-seed 1] [-out BENCH_PR7.json]
//	seatwin-loadgen -url http://host:8080 -duration 10s    # external target
//	seatwin-loadgen -smoke                                 # CI: tiny run, exit 1 on any error
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/kvstore"
	"seatwin/internal/pipeline"
	"seatwin/internal/views"
)

type options struct {
	url        string
	vessels    int
	region     string
	seed       int64
	prefill    int
	ingestRate int
	duration   time.Duration
	conns      int
	sse        int
	smoke      bool
	out        string
}

// endpointStats is one endpoint's measured load-phase behaviour.
type endpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	RPS      float64 `json:"rps"`
	P50us    int64   `json:"p50_us"`
	P99us    int64   `json:"p99_us"`
	MaxUs    int64   `json:"max_us"`
	Bytes    int64   `json:"bytes"`
}

type sseStats struct {
	Subscribers int   `json:"subscribers"`
	Errors      int64 `json:"errors"`
	Frames      int64 `json:"frames"`
}

type phaseReport struct {
	Name       string                   `json:"name"`
	DurationMS int64                    `json:"duration_ms"`
	Ingested   int64                    `json:"ingested"`
	Endpoints  map[string]endpointStats `json:"endpoints"`
	SSE        sseStats                 `json:"sse"`
}

type snapshotReadReport struct {
	Vessels     int     `json:"vessels"`
	Limit       int     `json:"limit"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     int64   `json:"ns_per_op"`
}

type relayReport struct {
	Relays          int   `json:"relays"`
	Subscribers     int64 `json:"subscribers"`
	Frames          int   `json:"frames"`
	MaxPublishUs    int64 `json:"max_publish_us"`
	Relayed         int64 `json:"relayed"`
	LocalFanned     int64 `json:"local_fanned"`
	ConflationDrops int64 `json:"conflation_drops"`
}

type report struct {
	GeneratedUnix int64               `json:"generated_unix"`
	Config        map[string]any      `json:"config"`
	Phases        []phaseReport       `json:"phases"`
	SnapshotRead  *snapshotReadReport `json:"snapshot_read,omitempty"`
	RelayTier     *relayReport        `json:"relay_tier,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "external API base URL (empty = build the pipeline in process)")
	flag.IntVar(&o.vessels, "vessels", 2000, "simulated fleet size (in-process targets)")
	flag.StringVar(&o.region, "region", "europe", "fleet region: aegean | europe | global — denser regions cost more event-detection CPU per report")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.IntVar(&o.prefill, "prefill", 0, "reports ingested before measurement (0 = 2x vessels)")
	flag.IntVar(&o.ingestRate, "ingest-rate", 300, "background reports/s ingested during measurement (0 = none); keep well under pipeline capacity so reads, not writes, are measured")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "measured load window per phase")
	flag.IntVar(&o.conns, "conns", 16, "concurrent HTTP load workers")
	flag.IntVar(&o.sse, "sse", 64, "concurrent SSE subscribers held open during the phase")
	flag.BoolVar(&o.smoke, "smoke", false, "CI smoke: one tiny run, exit non-zero on any request error")
	flag.StringVar(&o.out, "out", "", "write the JSON report to this file (empty = stdout only)")
	flag.Parse()

	if o.smoke {
		o.vessels, o.duration, o.conns, o.sse = 300, 800*time.Millisecond, 4, 8
		o.ingestRate, o.region = 100, "aegean"
		o.url = ""
	}
	if o.prefill <= 0 {
		o.prefill = 2 * o.vessels
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		Config: map[string]any{
			"vessels": o.vessels, "region": o.region, "seed": o.seed, "prefill": o.prefill,
			"ingest_rate": o.ingestRate,
			"duration_ms": o.duration.Milliseconds(),
			"conns":       o.conns, "sse": o.sse, "smoke": o.smoke,
		},
	}

	if o.url != "" {
		rep.Phases = append(rep.Phases, runLoad(o, "external", strings.TrimRight(o.url, "/"), nil))
	} else {
		tgt := startTarget(o)
		rep.Phases = append(rep.Phases, runLoad(o, "views", tgt.base, tgt.ingested))
		tgt.shutdown()

		sr := snapshotReadCheck(2000, 100)
		rep.SnapshotRead = &sr
		relays, subs, frames := 128, 100_000, 20_000
		if o.smoke {
			relays, subs, frames = 8, 2_000, 2_000
		}
		rt := relayLoad(relays, subs, frames)
		rep.RelayTier = &rt
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if o.out != "" {
		if err := os.WriteFile(o.out, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", o.out)
	}
	if o.smoke {
		smokeCheck(rep)
	}
}

// smokeCheck fails the process when any request errored or the
// zero-allocation snapshot read regressed — the CI contract.
func smokeCheck(rep report) {
	failed := false
	for _, ph := range rep.Phases {
		for ep, s := range ph.Endpoints {
			if s.Errors > 0 || s.Requests == 0 {
				log.Printf("SMOKE FAIL: phase %s %s: %d errors / %d requests", ph.Name, ep, s.Errors, s.Requests)
				failed = true
			}
		}
		if ph.SSE.Errors > 0 {
			log.Printf("SMOKE FAIL: phase %s: %d SSE errors", ph.Name, ph.SSE.Errors)
			failed = true
		}
	}
	if rep.SnapshotRead != nil && rep.SnapshotRead.AllocsPerOp != 0 {
		log.Printf("SMOKE FAIL: snapshot read allocates %.1f/op, want 0", rep.SnapshotRead.AllocsPerOp)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	log.Printf("smoke OK")
}

// target is one in-process pipeline + API instance under test.
type target struct {
	base     string
	ingested func() int64
	shutdown func()
}

// startTarget builds the full serving stack (store, hub, pipeline with
// its own views, HTTP API on a loopback port), prefills it from the
// seeded simulator and leaves the simulator ingesting at a steady pace
// so reads race writes like production.
func startTarget(o options) *target {
	var box geo.BBox
	switch o.region {
	case "aegean":
		box = geo.AegeanSea
	case "europe":
		box = geo.EuropeanCoverage
	case "global":
		box = geo.BBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	default:
		log.Fatalf("unknown region %q (want aegean|europe|global)", o.region)
	}
	store := kvstore.New()
	hub := feed.NewHub(feed.Options{RegionResolution: 7})
	cfg := pipeline.DefaultConfig(events.NewKinematicForecaster())
	cfg.Store, cfg.Feed = store, hub
	for _, pt := range fleetsim.PortsWithin(box) {
		cfg.Ports = append(cfg.Ports, congestion.Port{Name: pt.Name, Pos: pt.Pos, Radius: 6000, Capacity: 10})
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	api := pipeline.NewAPI(p)
	go func() {
		if err := api.ListenAndServe("127.0.0.1:0"); err != nil && err != http.ErrServerClosed {
			log.Printf("api: %v", err)
		}
	}()
	for api.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	world := fleetsim.NewWorld(fleetsim.Config{
		Vessels: o.vessels, Seed: o.seed, Region: box, KeepSailing: true,
	})
	var ingested int64
	for i := 0; i < o.prefill; i++ {
		r, ok := world.Next()
		if !ok {
			break
		}
		p.Ingest(r.Pos, time.Now())
		ingested++
	}
	p.Drain(30 * time.Second)
	p.Views().Refresh() // first epoch is ready before the first request

	// Background ingest trickle: keeps the write side (actors, event
	// detection, view staging) live while reads are measured. The rate
	// is deliberately modest — event detection is O(pairs) trigonometry,
	// and outrunning the pipeline on a small box backlogs the actor
	// mailboxes until the HTTP server is starved of CPU.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if o.ingestRate > 0 {
		batch := o.ingestRate / 20
		if batch < 1 {
			batch = 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for i := 0; i < batch; i++ {
					r, ok := world.Next()
					if !ok {
						return
					}
					p.Ingest(r.Pos, time.Now())
					atomic.AddInt64(&ingested, 1)
				}
			}
		}()
	}

	log.Printf("target on http://%s (%d vessels, %d prefilled)", api.Addr(), o.vessels, ingested)
	return &target{
		base:     "http://" + api.Addr().String(),
		ingested: func() int64 { return atomic.LoadInt64(&ingested) },
		shutdown: func() {
			close(stop)
			wg.Wait()
			api.Close()
			p.Shutdown(10 * time.Second)
			hub.Close()
			store.Close()
		},
	}
}

// loadEndpoints is the measured GET mix — /api/vessels dominates, the
// way dashboards poll it, with bbox/limit variants and the smaller
// event and congestion bodies mixed in.
var loadEndpoints = []string{
	"/api/vessels",
	"/api/vessels",
	"/api/vessels",
	"/api/vessels?limit=50",
	"/api/vessels?bbox=36.0,23.0,39.0,26.5",
	"/api/events",
	"/api/congestion",
}

// runLoad drives the mixed GET workload plus the SSE pool against base
// for the configured duration and aggregates per-endpoint stats.
func runLoad(o options, name, base string, ingested func() int64) phaseReport {
	transport := &http.Transport{MaxIdleConns: o.conns * 2, MaxIdleConnsPerHost: o.conns * 2}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer transport.CloseIdleConnections()

	var startIngested int64
	if ingested != nil {
		startIngested = ingested()
	}

	// SSE pool: held open for the whole phase, counting frames.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	var sseFrames, sseErrors int64
	var sseWG sync.WaitGroup
	streamURL := base + "/api/stream?events=all&region=37.9,23.6&policy=conflate&buffer=16"
	for i := 0; i < o.sse; i++ {
		sseWG.Add(1)
		go func() {
			defer sseWG.Done()
			req, err := http.NewRequestWithContext(sseCtx, "GET", streamURL, nil)
			if err != nil {
				atomic.AddInt64(&sseErrors, 1)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				if sseCtx.Err() == nil {
					atomic.AddInt64(&sseErrors, 1)
				}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				atomic.AddInt64(&sseErrors, 1)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "event:") {
					atomic.AddInt64(&sseFrames, 1)
				}
			}
		}()
	}

	// HTTP workers: round-robin through the endpoint mix until the
	// deadline, recording latency per endpoint.
	type workerStats struct {
		lat   map[string][]int64
		errs  map[string]int64
		bytes map[string]int64
	}
	perWorker := make([]workerStats, o.conns)
	start := time.Now()
	deadline := start.Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := workerStats{
				lat:   map[string][]int64{},
				errs:  map[string]int64{},
				bytes: map[string]int64{},
			}
			for i := w; time.Now().Before(deadline); i++ {
				ep := loadEndpoints[i%len(loadEndpoints)]
				t0 := time.Now()
				resp, err := client.Get(base + ep)
				if err != nil {
					ws.errs[ep]++
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					ws.errs[ep]++
					continue
				}
				ws.lat[ep] = append(ws.lat[ep], time.Since(t0).Microseconds())
				ws.bytes[ep] += n
			}
			perWorker[w] = ws
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sseCancel()
	sseWG.Wait()

	// Merge.
	merged := map[string][]int64{}
	errs := map[string]int64{}
	bytes := map[string]int64{}
	for _, ws := range perWorker {
		for ep, l := range ws.lat {
			merged[ep] = append(merged[ep], l...)
		}
		for ep, n := range ws.errs {
			errs[ep] += n
		}
		for ep, n := range ws.bytes {
			bytes[ep] += n
		}
	}
	eps := map[string]endpointStats{}
	for _, ep := range loadEndpoints {
		lat := merged[ep]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s := endpointStats{
			Requests: int64(len(lat)) + errs[ep],
			Errors:   errs[ep],
			RPS:      float64(len(lat)) / elapsed.Seconds(),
			P50us:    pct(lat, 0.50),
			P99us:    pct(lat, 0.99),
			Bytes:    bytes[ep],
		}
		if len(lat) > 0 {
			s.MaxUs = lat[len(lat)-1]
		}
		eps[ep] = s
	}

	ph := phaseReport{
		Name:       name,
		DurationMS: elapsed.Milliseconds(),
		Endpoints:  eps,
		SSE:        sseStats{Subscribers: o.sse, Errors: sseErrors, Frames: sseFrames},
	}
	if ingested != nil {
		ph.Ingested = ingested() - startIngested
	}
	v := eps["/api/vessels"]
	log.Printf("phase %s: /api/vessels %.0f req/s p50=%dµs p99=%dµs (errors %d); sse frames %d",
		name, v.RPS, v.P50us, v.P99us, v.Errors, sseFrames)
	return ph
}

func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// snapshotReadCheck measures the serving hot path in isolation: one
// pre-encoded default-limit body written to a sink. The acceptance bar
// is zero heap allocations per read.
func snapshotReadCheck(nVessels, limit int) snapshotReadReport {
	v := views.New(views.Config{RefreshInterval: -1})
	defer v.Close()
	base := time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)
	for i := 0; i < nVessels; i++ {
		v.ApplyState(views.VesselState{
			MMSI: ais.MMSI(237000000 + i),
			Name: "LOADGEN", Lat: 35 + float64(i%100)*0.01, Lon: 22.5 + float64(i/100)*0.01,
			SOG: 12, COG: 90, Status: "UnderWayUsingEngine",
			TS: base.Add(time.Duration(i) * time.Second),
			Forecast: []events.ForecastPoint{
				{Pos: geo.Point{Lat: 35.1, Lon: 22.6}, At: base.Add(time.Minute)},
			},
		})
	}
	v.Refresh()
	snap := v.Vessels()
	allocs := testing.AllocsPerRun(500, func() {
		snap.WriteJSON(io.Discard, limit, nil)
	})
	const iters = 100_000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		snap.WriteJSON(io.Discard, limit, nil)
	}
	ns := time.Since(t0).Nanoseconds() / iters
	log.Printf("snapshot read: %d vessels, limit %d: %.1f allocs/op, %d ns/op", nVessels, limit, allocs, ns)
	return snapshotReadReport{Vessels: nVessels, Limit: limit, AllocsPerOp: allocs, NsPerOp: ns}
}

// relayLoad stands up the tiered fan-out — nRelays hub subscriptions
// carrying nSubs local subscribers — and publishes a frame burst,
// verifying the hub's publish cost stays bounded by the relay count
// while the tier absorbs the full local fan-out.
func relayLoad(nRelays, nSubs, frames int) relayReport {
	hub := feed.NewHub(feed.Options{RegionResolution: 7})
	const nVessels = 64
	basePt := geo.Point{Lat: 37.5, Lon: 24.5}
	positions := make([]geo.Point, nVessels)
	cells := make([]string, nVessels)
	for i := range positions {
		positions[i] = geo.Point{Lat: basePt.Lat + float64(i%8)*0.1, Lon: basePt.Lon + float64(i/8%8)*0.1}
		cells[i] = hexgrid.LatLonToCell(positions[i], 7).String()
	}

	relays := make([]*feed.Relay, nRelays)
	for i := range relays {
		var topics []string
		switch i % 5 {
		case 0, 1:
			topics = []string{feed.TopicVesselPrefix + ais.MMSI(237000000+i%nVessels).String()}
		case 2, 3:
			topics = []string{feed.TopicRegionPrefix + cells[i%nVessels]}
		default:
			topics = []string{feed.TopicProximity, feed.TopicCollision, feed.TopicGap}
		}
		r, err := hub.NewRelay(topics, feed.RelayOptions{Buffer: 256})
		if err != nil {
			log.Fatal(err)
		}
		relays[i] = r
	}
	subsPerRelay := (nSubs + nRelays - 1) / nRelays
	policies := []feed.Policy{feed.PolicyDropOldest, feed.PolicyConflate, feed.PolicyDropOldest}
	var wg sync.WaitGroup
	for _, r := range relays {
		for j := 0; j < subsPerRelay; j++ {
			sub, err := r.Subscribe(feed.SubOptions{Buffer: 4, Policy: policies[j%len(policies)]})
			if err != nil {
				log.Fatal(err)
			}
			if j == 0 { // one live consumer per relay
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, ok := sub.Recv(); !ok {
							return
						}
					}
				}()
			}
		}
	}
	subscribers := hub.RelayStats().Subscribers

	ts := time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)
	var maxPublish time.Duration
	for i := 0; i < frames; i++ {
		vi := i % nVessels
		t0 := time.Now()
		hub.PublishState(feed.State{
			MMSI: ais.MMSI(237000000 + vi),
			Lat:  positions[vi].Lat, Lon: positions[vi].Lon,
			SOG: 12, COG: 90, TS: ts,
		})
		if d := time.Since(t0); d > maxPublish {
			maxPublish = d
		}
	}
	// Let the pumps drain so the tier numbers reflect deliveries.
	s := hub.Snapshot()
	tier := hub.RelayStats()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		tier = hub.RelayStats()
		if tier.Relayed+tier.ConflationDrops >= s.Fanned+s.Conflated {
			break
		}
		time.Sleep(time.Millisecond)
	}
	hub.Close()
	wg.Wait()
	log.Printf("relay tier: %d relays carrying %d subscribers, %d frames, max publish %v",
		nRelays, subscribers, frames, maxPublish)
	return relayReport{
		Relays:          nRelays,
		Subscribers:     subscribers,
		Frames:          frames,
		MaxPublishUs:    maxPublish.Microseconds(),
		Relayed:         tier.Relayed,
		LocalFanned:     tier.Fanned,
		ConflationDrops: tier.ConflationDrops,
	}
}
