package bench

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/congestion"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/kvstore"
	"seatwin/internal/lvrf"
	"seatwin/internal/pipeline"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
	"seatwin/internal/views"
)

const (
	topic      = "ais"
	group      = "pipeline"
	partitions = 8
	consumers  = 2
)

// rig is one composed instance of the program: the same wiring as
// cmd/seatwin's single-process mode (store, hub, views, pipeline, API,
// an 8-partition topic and a consumer group), built fresh per set-up.
type rig struct {
	store *kvstore.Store
	hub   *feed.Hub
	views *views.Views
	br    *broker.Broker
	p     *pipeline.Pipeline
	api   *pipeline.API
	base  string // http://127.0.0.1:port

	cons   []*broker.Consumer
	consWG sync.WaitGroup
	subs   []*feed.Subscription // undrained region subscribers
}

// trainSVRF fits a small S-VRF on a seeded Aegean recording: enough for
// non-trivial weights; inference cost does not depend on fit quality.
func trainSVRF(seed int64, smoke bool) (*svrf.Model, error) {
	vessels, hours, epochs := 60, 4*time.Hour, 3
	if smoke {
		vessels, hours, epochs = 20, 2*time.Hour, 1
	}
	ds := fleetsim.Record(geo.AegeanSea, vessels, hours, seed)
	cfg := traj.DefaultConfig()
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, cfg)...)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("training recording produced no windows")
	}
	mcfg := svrf.DefaultConfig()
	mcfg.Seed = seed
	m, err := svrf.New(mcfg)
	if err != nil {
		return nil, err
	}
	opt := svrf.DefaultTrainOptions()
	opt.Epochs = epochs
	opt.Seed = seed
	m.Train(windows, opt)
	return m, nil
}

// trainLVRF mines port-to-port trips from a multi-day Aegean recording
// (inside the europe box, where complete voyages take days not weeks)
// and builds the lane graphs /api/route serves.
func trainLVRF(seed int64) (*lvrf.Model, [2]string, error) {
	ds := fleetsim.Record(geo.AegeanSea, 40, 48*time.Hour, seed)
	ports := make(map[string]geo.Point)
	for _, p := range fleetsim.PortsWithin(geo.AegeanSea) {
		ports[p.Name] = p.Pos
	}
	var trips []lvrf.Trip
	for _, tr := range ds.Tracks {
		in := lvrf.TrackInput{
			MMSI: uint32(tr.Vessel.MMSI),
			Features: lvrf.Features{
				ShipType: uint8(tr.Vessel.Profile.Type),
				Length:   float64(tr.Vessel.Profile.Length),
				Draught:  tr.Vessel.Profile.Draught,
			},
		}
		for _, r := range tr.Reports {
			in.Positions = append(in.Positions, geo.Point{Lat: r.Lat, Lon: r.Lon})
			in.Times = append(in.Times, r.Timestamp)
		}
		trips = append(trips, lvrf.ExtractTrips(in, ports, 6000)...)
	}
	// Two days of forty vessels yield few repeats per port pair; two
	// trips make a lane here so that every seed learns some.
	cfg := lvrf.DefaultConfig()
	cfg.MinTrips = 2
	m := lvrf.Train(trips, ports, cfg)
	pairs := m.Pairs()
	if len(pairs) == 0 {
		return nil, [2]string{}, fmt.Errorf("L-VRF learned no lane from %d trips", len(trips))
	}
	return m, pairs[0], nil
}

// newRig wires the program. wrap decorates each consumer handed to
// ConsumeLoop (the tracer's stamps); nil hands the broker consumer over
// untouched.
func newRig(s Spec, model *svrf.Model, route *lvrf.Model, wrap func(*broker.Consumer) pipeline.RecordConsumer) (*rig, error) {
	r := &rig{
		store: kvstore.New(),
		hub:   feed.NewHub(feed.Options{RegionResolution: 7}),
		views: views.New(views.Config{RegionResolution: 7}),
		br:    broker.New(),
	}
	cfg := pipeline.DefaultConfig(events.SVRFForecaster{Model: model})
	cfg.Store = r.store
	cfg.Feed = r.hub
	cfg.Views = r.views
	cfg.RouteModel = route
	if s.Ports {
		box := s.region()
		if box == (geo.BBox{}) {
			box = geo.BBox{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
		}
		for _, pt := range fleetsim.PortsWithin(box) {
			cfg.Ports = append(cfg.Ports, congestion.Port{Name: pt.Name, Pos: pt.Pos, Radius: 6000, Capacity: 10})
		}
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.p = p
	if err := r.br.CreateTopic(topic, partitions); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < consumers; i++ {
		c, err := r.br.Subscribe(topic, group)
		if err != nil {
			r.close()
			return nil, err
		}
		r.cons = append(r.cons, c)
		var rc pipeline.RecordConsumer = c
		if wrap != nil {
			rc = wrap(c)
		}
		r.consWG.Add(1)
		go func() {
			defer r.consWG.Done()
			p.ConsumeLoop(rc, time.Hour)
		}()
	}

	r.api = pipeline.NewAPI(p)
	errc := make(chan error, 1)
	go func() { errc <- r.api.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for r.api.Addr() == nil {
		select {
		case err := <-errc:
			r.close()
			return nil, fmt.Errorf("api listen: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("api did not bind within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	r.base = "http://" + r.api.Addr().String()
	return r, nil
}

// attachRegionSubs leaves RegionSubs conflating region/<cell>
// subscriptions attached and never drains them: the publish-side cost of
// a watched map without a reader thread. The cells are those of the
// newest vessels in the freshly refreshed world view.
func (r *rig) attachRegionSubs(s Spec) error {
	items := r.views.Vessels().Items
	for i := 0; len(r.subs) < s.RegionSubs && i < len(items); i++ {
		p := geo.Point{Lat: items[i].Lat, Lon: items[i].Lon}
		sub, err := r.hub.Subscribe([]string{r.hub.RegionTopic(p)}, feed.SubOptions{Policy: feed.PolicyConflate})
		if err != nil {
			return err
		}
		r.subs = append(r.subs, sub)
	}
	if len(r.subs) < s.RegionSubs {
		return fmt.Errorf("attached %d of %d region subscribers", len(r.subs), s.RegionSubs)
	}
	return nil
}

// stopConsumers closes the consumer group and waits for the consume
// loops to return, so everything they wrote is safe to read.
func (r *rig) stopConsumers() {
	for _, c := range r.cons {
		c.Close()
	}
	r.consWG.Wait()
	r.cons = nil
}

// close tears the instance down in dependency order. Safe on a
// half-built rig.
func (r *rig) close() {
	r.stopConsumers()
	for _, s := range r.subs {
		s.Close()
	}
	if r.api != nil {
		_ = r.api.Close() // http.Server.Close: nothing to recover from
	}
	if r.p != nil {
		r.p.Shutdown(5 * time.Second)
	}
	r.views.Close()
	r.hub.Close()
	r.store.Close()
}

// httpClient returns a client pinned to one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
