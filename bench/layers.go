package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/broker"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/kvstore"
	"seatwin/internal/lvrf"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
	"seatwin/internal/views"
)

// timeOp runs fn in batches that double until one lasts the budget, the
// way testing.B sizes b.N, and returns the last batch's ns/op and
// allocs/op. (testing.Benchmark itself would register the test flags on
// this command's flag set and run a fixed second per loop.)
func timeOp(budget time.Duration, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var ms0, ms1 runtime.MemStats
	for n := 64; ; n *= 2 {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		if d >= budget || n >= 1<<26 {
			runtime.ReadMemStats(&ms1)
			return float64(d.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		}
	}
}

// LayerSuite times one loop per layer's public entry point, fed inputs
// captured from the global and strait worlds. It is not a workload: no
// end-to-end metric comes from it.
func LayerSuite(seed int64, budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}

	// Inputs: wire sentences and decoded reports of a global world, and a
	// strait world's tracks for the detectors.
	var posLines, staticLines []fleetsim.WireLine
	feedW := fleetsim.NewWireFeed(fleetsim.NewWorld(fleetsim.Config{Vessels: 200, Seed: seed, KeepSailing: true}))
	var reports []ais.PositionReport
	asm := ais.NewAssembler()
	for len(posLines) < 4000 {
		wl, _ := feedW.Next()
		s, err := ais.ParseSentence(wl.Line)
		if err != nil {
			return nil, err
		}
		if s.FragCount > 1 {
			staticLines = append(staticLines, wl)
		}
		msg, err := asm.Push(s, wl.At)
		if err != nil {
			return nil, err
		}
		if pr, ok := msg.(ais.PositionReport); ok {
			posLines = append(posLines, wl)
			reports = append(reports, pr)
		}
	}
	if len(staticLines) == 0 {
		return nil, fmt.Errorf("layer suite: world emitted no fragmented static message")
	}

	out["ais.decode_ns"], _ = timeOp(budget, func(i int) {
		wl := posLines[i%len(posLines)]
		s, _ := ais.ParseSentence(wl.Line)
		_, _ = asm.Push(s, wl.At) // generated input: decoded once above
	})
	out["ais.decode_static_ns"], _ = timeOp(budget, func(i int) {
		wl := staticLines[i%len(staticLines)]
		s, _ := ais.ParseSentence(wl.Line)
		_, _ = asm.Push(s, wl.At)
	})

	br := broker.New()
	if err := br.CreateTopic(topic, partitions); err != nil {
		return nil, err
	}
	keys := make([]string, len(reports))
	for i, r := range reports {
		keys[i] = r.MMSI.String()
	}
	produced := 0
	out["broker.produce_ns"], _ = timeOp(budget, func(i int) {
		k := i % len(reports)
		_, _, _ = br.Produce(topic, keys[k], reports[k]) // in-memory topic cannot fail
		produced++
	})
	cons, err := br.Subscribe(topic, group)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	polled := 0
	for polled < produced {
		recs := cons.Poll(512, time.Second)
		if len(recs) == 0 {
			break
		}
		polled += len(recs)
		cons.Commit()
	}
	out["broker.poll_ns_per_record"] = float64(time.Since(start).Nanoseconds()) / float64(max(polled, 1))
	cons.Close()

	// A tight send loop trips a data race inside internal/actor
	// (mailbox.empty reads the consumer cursor after setIdle has handed
	// the mailbox over); it is the program's to fix, so under the race
	// detector this one loop is left out and the metric reads 0.
	out["actor.send_ns"] = 0
	if !raceEnabled {
		sys := actor.NewSystem("layers")
		sink := sys.Spawn(actor.PropsOf(func(*actor.Context) {}))
		var boxed any = reports[0]
		out["actor.send_ns"], _ = timeOp(budget, func(int) { sys.Send(sink, boxed) })
		sys.Shutdown(5 * time.Second)
	}

	model, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fc := events.SVRFForecaster{Model: model}
	history, err := forecastableTrack(fleetsim.DenseStraitWorld(20, seed), 48, fc)
	if err != nil {
		return nil, err
	}
	out["svrf.forecast_track_ns"], out["svrf.forecast_track_allocs"] = timeOp(budget, func(int) { fc.ForecastTrack(history) })

	var cells []hexgrid.Cell
	out["hexgrid.disk_covering_ns"], _ = timeOp(budget, func(i int) {
		r := reports[i%len(reports)]
		cells = hexgrid.AppendDiskCovering(cells[:0], geo.Point{Lat: r.Lat, Lon: r.Lon}, 9, 500)
	})

	// Detectors at occupancy 100: a hundred strait vessels in one cell.
	strait := fleetsim.DenseStraitWorld(100, seed)
	latest := map[ais.MMSI][]ais.PositionReport{}
	for n := 0; n < 100*60; n++ {
		r, _ := strait.Next()
		latest[r.Pos.MMSI] = append(latest[r.Pos.MMSI], r.Pos)
	}
	var fcs []events.Forecast
	var last []ais.PositionReport
	for _, h := range latest {
		if f, ok := fc.ForecastTrack(h); ok {
			fcs = append(fcs, f)
			last = append(last, h[len(h)-1])
		}
	}
	if len(fcs) < 50 {
		return nil, fmt.Errorf("layer suite: only %d strait forecasts", len(fcs))
	}
	prox := events.NewGridProximityDetector(events.DefaultProximityConfig())
	at := last[0].Timestamp
	for _, r := range last {
		prox.Seed(r.MMSI, geo.Point{Lat: r.Lat, Lon: r.Lon}, at)
	}
	out["events.prox_update_ns_occ100"], _ = timeOp(budget, func(i int) {
		r := last[i%len(last)]
		prox.Update(r.MMSI, geo.Point{Lat: r.Lat, Lon: r.Lon}, at)
	})
	coll := events.NewGridDetector(events.DefaultCollisionConfig(), 10*time.Minute)
	for _, f := range fcs {
		coll.Seed(f, at)
	}
	out["events.coll_update_ns_occ100"], _ = timeOp(budget, func(i int) { coll.Update(fcs[i%len(fcs)], at) })

	store := kvstore.New()
	fields := []kvstore.Field{
		{Name: "lat", Value: "37.12345"}, {Name: "lon", Value: "23.12345"}, {Name: "sog", Value: "12.3"},
		{Name: "cog", Value: "181.0"}, {Name: "status", Value: "under way using engine"},
		{Name: "ts", Value: "2021-11-02T00:00:03Z"}, {Name: "forecast", Value: "37.1,23.1,1635811203;37.2,23.2,1635811503"},
		{Name: "name", Value: "AEGEAN STAR 7"},
	}
	out["kvstore.hset_fields_ns"], _ = timeOp(budget, func(i int) {
		_, _ = store.HSetFields("vessel:"+keys[i%len(keys)], fields) // fresh hash keys cannot be the wrong type
	})
	store.Close()

	vw := views.New(views.Config{RefreshInterval: -1})
	states := make([]views.VesselState, 10000)
	for i := range states {
		r := reports[i%len(reports)]
		states[i] = views.VesselState{
			MMSI: ais.MMSI(200000000 + i), Lat: r.Lat, Lon: r.Lon, SOG: r.SOG, COG: r.COG,
			Status: r.Status.String(), TS: r.Timestamp,
		}
	}
	out["views.apply_state_ns"], _ = timeOp(budget, func(i int) { vw.ApplyState(states[i%len(states)]) })
	const refreshes = 3
	start = time.Now()
	var inRefresh time.Duration
	for k := 0; k < refreshes; k++ {
		for i := range states {
			states[i].TS = states[i].TS.Add(time.Second)
			vw.ApplyState(states[i])
		}
		t := time.Now()
		vw.Refresh()
		inRefresh += time.Since(t)
	}
	out["views.refresh_ms_10k"] = float64(inRefresh) / 1e6 / refreshes
	snap := vw.Vessels()
	out["views.snapshot_write_ns"], _ = timeOp(budget, func(int) { _, _ = snap.WriteJSON(io.Discard, 100, nil) })
	vw.Close()

	hub := feed.NewHub(feed.Options{})
	st := feed.State{MMSI: reports[0].MMSI, Lat: reports[0].Lat, Lon: reports[0].Lon, SOG: 12, COG: 180,
		Status: "under way using engine", TS: reports[0].Timestamp}
	for i := 0; i < 16; i++ {
		if _, err := hub.Subscribe([]string{hub.RegionTopic(geo.Point{Lat: st.Lat, Lon: st.Lon})},
			feed.SubOptions{Policy: feed.PolicyConflate}); err != nil {
			return nil, err
		}
	}
	out["feed.publish_state_ns_16subs"], _ = timeOp(budget, func(int) { hub.PublishState(st) })
	hub.Close()

	route, pair := syntheticLane()
	if _, err := route.ForecastRoute(pair[0], pair[1], lvrf.Features{ShipType: 70, Length: 190, Draught: 10}); err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	out["lvrf.forecast_route_ns"], _ = timeOp(budget, func(int) {
		_, _ = route.ForecastRoute(pair[0], pair[1], lvrf.Features{ShipType: 70, Length: 190, Draught: 10}) // checked above
	})

	ds := fleetsim.Record(geo.AegeanSea, 20, 2*time.Hour, seed)
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, traj.DefaultConfig())...)
	}
	if len(windows) > 256 {
		windows = windows[:256]
	}
	if len(windows) > 0 {
		opt := svrf.DefaultTrainOptions()
		opt.Epochs = 1
		start = time.Now()
		model.Train(windows, opt)
		out["nn.train_sample_us"] = float64(time.Since(start).Microseconds()) / float64(len(windows))
	}
	return out, nil
}

// forecastableTrack returns the first n consecutive reports of one
// vessel that the forecaster accepts. Not any n reports will do: a vessel
// reporting every two seconds covers in 48 reports less time than the
// model's input spans.
func forecastableTrack(w *fleetsim.World, n int, fc events.SVRFForecaster) ([]ais.PositionReport, error) {
	tracks := map[ais.MMSI][]ais.PositionReport{}
	for k := 0; k < 100000; k++ {
		r, ok := w.Next()
		if !ok {
			break
		}
		t := append(tracks[r.Pos.MMSI], r.Pos)
		if len(t) > n {
			t = t[1:]
		}
		tracks[r.Pos.MMSI] = t
		if len(t) == n {
			if _, ok := fc.ForecastTrack(t); ok {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("layer suite: no vessel's %d-report history forecasts", n)
}

// syntheticLane builds an L-VRF model over three jittered trips between
// two Aegean ports: enough for ForecastRoute's graph walk.
func syntheticLane() (*lvrf.Model, [2]string) {
	a, _ := fleetsim.FindPort("Piraeus")
	b, _ := fleetsim.FindPort("Heraklion")
	ports := map[string]geo.Point{a.Name: a.Pos, b.Name: b.Pos}
	t0 := time.Date(2021, 11, 2, 0, 0, 0, 0, time.UTC)
	var trips []lvrf.Trip
	for k := 0; k < 3; k++ {
		tr := lvrf.Trip{MMSI: uint32(237000001 + k), Origin: a.Name, Dest: b.Name,
			Features: lvrf.Features{ShipType: 70, Length: 180 + float64(10*k), Draught: 9 + float64(k)}}
		for i := 0; i <= 60; i++ {
			f := float64(i) / 60
			tr.Points = append(tr.Points, geo.Point{
				Lat: a.Pos.Lat + (b.Pos.Lat-a.Pos.Lat)*f + 0.01*float64(k)*f*(1-f),
				Lon: a.Pos.Lon + (b.Pos.Lon-a.Pos.Lon)*f,
			})
			tr.Times = append(tr.Times, t0.Add(time.Duration(i)*10*time.Minute))
		}
		trips = append(trips, tr)
	}
	return lvrf.Train(trips, ports, lvrf.DefaultConfig()), [2]string{a.Name, b.Name}
}

// addLayerSuite runs the suite after a traced run and models the run's
// CPU per report from it: each layer's cost times its measured calls per
// report. The share of cpu_us_per_report the model explains is
// bench.budget_coverage — what is left is cost no layer owns yet.
func (rep *Report) addLayerSuite() error {
	budget := 40 * time.Millisecond
	if rep.Spec.Smoke {
		budget = 2 * time.Millisecond
	}
	suite, err := LayerSuite(rep.Seed, budget)
	if err != nil {
		return err
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for k, v := range suite {
		rep.PerLayer[k] = Metric{Value: v, Unit: units[k]}
	}
	pl := func(name string) float64 { return rep.PerLayer[name].Value }
	proxN, collN := pl("events.prox_updates_per_report"), pl("events.coll_updates_per_report")
	sends := 1 + proxN + collN + 1 // to the vessel actor, the cell actors, the writer
	modelledUS := (pl("ais.decode_ns") + pl("broker.produce_ns") + pl("broker.poll_ns_per_record") +
		pl("actor.send_ns")*sends + pl("svrf.forecast_track_ns")*pl("svrf.forecasts_per_report") +
		pl("hexgrid.disk_covering_ns") + pl("kvstore.hset_fields_ns") + pl("views.apply_state_ns") +
		pl("feed.publish_state_ns_16subs")*pl("feed.frames_per_report")) / 1e3
	// The detectors' cost depends on occupancy, so the model takes the
	// run's own per-update timings rather than the occupancy-100 loops.
	modelledUS += pl("events.prox_update_us")*proxN + pl("events.coll_update_us")*collN
	var cpu []float64
	for _, in := range rep.Runs {
		cpu = append(cpu, in.Metrics["cpu_us_per_report"])
	}
	if c := median(cpu); c > 0 {
		rep.PerLayer["bench.budget_coverage"] = Metric{Value: modelledUS / c, Unit: "ratio"}
	}
	return nil
}
