// Package seatwin_bench is the repository's top-level benchmark
// harness: one benchmark per table and figure of the paper's evaluation
// section (run them with `go test -bench=. -benchmem .`), plus the
// ablation benchmarks DESIGN.md calls out. Each experiment benchmark
// prints the corresponding table through the shared
// internal/experiments code and reports its headline numbers as
// benchmark metrics.
package seatwin_bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/actor"
	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/experiments"
	"seatwin/internal/feed"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
	"seatwin/internal/pipeline"
	"seatwin/internal/svrf"
	"seatwin/internal/traj"
	"seatwin/internal/vtff"
)

// The trained model is shared across experiment benchmarks; training it
// is itself part of BenchmarkTable1.
var (
	trainOnce sync.Once
	trained   experiments.TrainedModel
)

func trainedModel() experiments.TrainedModel {
	trainOnce.Do(func() {
		trained = experiments.TrainSVRF(experiments.Small, 42)
	})
	return trained
}

// BenchmarkTable1_SVRF_ADE regenerates Table 1: ADE per horizon for the
// linear kinematic baseline and the S-VRF model on held-out windows.
func BenchmarkTable1_SVRF_ADE(b *testing.B) {
	tm := trainedModel()
	var res experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable1(tm)
	}
	b.StopTimer()
	fmt.Println()
	fmt.Print(res.Format())
	b.ReportMetric(res.MeanKin, "kinematic-ADE-m")
	b.ReportMetric(res.MeanSVRF, "svrf-ADE-m")
	b.ReportMetric(res.MeanDiff, "diff-%")
}

// BenchmarkTable2_Collision regenerates Table 2: the collision
// forecasting grid over the synthetic proximity dataset.
func BenchmarkTable2_Collision(b *testing.B) {
	tm := trainedModel()
	var res experiments.Table2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(tm, 42)
	}
	b.StopTimer()
	fmt.Println()
	fmt.Print(res.Format())
	// Headline: All Events @ 2 min rows (kinematic first, S-VRF second).
	if len(res.Rows) >= 2 {
		b.ReportMetric(res.Rows[0].Recall, "kinematic-recall")
		b.ReportMetric(res.Rows[1].Recall, "svrf-recall")
	}
}

// BenchmarkFigure6_Scalability regenerates Figure 6: processing time
// against a growing actor population on the full pipeline, with the
// S-VRF architecture doing the forecasting (untrained weights have the
// same inference cost).
func BenchmarkFigure6_Scalability(b *testing.B) {
	m, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fc := events.SVRFForecaster{Model: m}
	var res experiments.Figure6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure6(fc, 20000, 300000, 3000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	fmt.Println()
	fmt.Print(res.Format())
	if n := len(res.Series); n > 0 {
		b.ReportMetric(float64(res.Series[n-1].Vessels), "final-vessels")
		b.ReportMetric(float64(res.Series[n-1].Actors), "final-actors")
		b.ReportMetric(float64(res.Series[n-1].AvgProcess.Microseconds()), "steady-avg-us")
		peak := time.Duration(0)
		for _, s := range res.Series {
			if s.Actors <= 5000 && s.AvgProcess > peak {
				peak = s.AvgProcess
			}
		}
		b.ReportMetric(float64(peak.Microseconds()), "init-peak-us")
	}
	b.ReportMetric(float64(res.Stats.DeadLetter), "dead-letters")
}

// BenchmarkDatasetStats regenerates the §6.1 sampling statistics of the
// simulated stream after 30-second downsampling.
func BenchmarkDatasetStats(b *testing.B) {
	tm := trainedModel()
	var res experiments.DatasetResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunDatasetStats(tm)
	}
	b.StopTimer()
	fmt.Println()
	fmt.Print(res.Format())
	b.ReportMetric(res.IntervalMean, "mean-interval-s")
	b.ReportMetric(res.IntervalStd, "std-interval-s")
}

// BenchmarkVTFF_IndirectVsDirect regenerates the §5.1 strategy
// comparison the paper adopts from [17].
func BenchmarkVTFF_IndirectVsDirect(b *testing.B) {
	tm := trainedModel()
	var res experiments.VTFFResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunVTFF(tm, 42)
	}
	b.StopTimer()
	fmt.Println()
	fmt.Print(res.Format())
	b.ReportMetric(res.Comparison.AdvantageFactor(), "indirect-advantage-x")
}

// --- Sharded runtime (DESIGN.md "Sharded runtime") ----------------

// BenchmarkGetOrSpawnParallel measures a registry spawn storm: every
// iteration materialises a new keyed actor — mimicking first contact of
// new MMSIs and hexgrid cells — interleaved with re-lookups of already
// registered hot keys (the steady-state case).
func BenchmarkGetOrSpawnParallel(b *testing.B) {
	sys := actor.NewSystem("bench")
	defer sys.Shutdown(time.Second)
	props := actor.PropsOf(func(c *actor.Context) {})
	var next uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := atomic.AddUint64(&next, 1)
			sys.GetOrSpawn(actor.Key{ID: n}, props)
			sys.GetOrSpawn(actor.Key{ID: n >> 4}, props)
		}
	})
}

// BenchmarkLiveFeedEndToEnd measures the full push path: AIS reports
// ingested into the pipeline, processed by vessel actors, persisted by
// the writer actor, and fanned out by the live-feed hub to thousands of
// concurrently-consuming subscribers — the Figure 2 middleware serving
// push instead of poll.
func BenchmarkLiveFeedEndToEnd(b *testing.B) {
	hub := feed.NewHub(feed.Options{RegionResolution: 7})
	defer hub.Close()
	cfg := pipeline.DefaultConfig(events.NewKinematicForecaster())
	cfg.Feed = hub
	p, err := pipeline.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Shutdown(5 * time.Second)

	// 2,000 subscribers over the fleet's vessel and region topics plus
	// the event classes, all draining concurrently.
	const fleet, nSubs = 1024, 2000
	var wg sync.WaitGroup
	for i := 0; i < nSubs; i++ {
		var topics []string
		switch i % 3 {
		case 0:
			topics = []string{feed.TopicVesselPrefix + ais.MMSI(200000001+i%fleet).String()}
		case 1:
			topics = []string{hub.RegionTopic(geo.Point{
				Lat: 30 + float64(i%64)*0.2, Lon: 20 + float64(i/64%16)*0.2,
			})}
		default:
			topics = []string{feed.TopicProximity, feed.TopicCollision, feed.TopicGap}
		}
		sub, err := hub.Subscribe(topics, feed.SubOptions{Buffer: 64, Policy: feed.PolicyConflate})
		if err != nil {
			b.Fatal(err)
		}
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

	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	var workerID int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&workerID, 1)
		var i int64
		for pb.Next() {
			i++
			v := (w-1)*fleet + i%fleet
			ts := base.Add(time.Duration(i/fleet) * 30 * time.Second)
			p.Ingest(ais.PositionReport{
				MMSI: ais.MMSI(200000000 + v),
				Lat:  30 + float64(v%64)*0.2,
				Lon:  20 + float64(v/64)*0.2 + float64(i/fleet)*0.001,
				SOG:  12, COG: 90,
				Timestamp: ts,
			})
		}
	})
	p.Drain(60 * time.Second)
	b.StopTimer()
	s := hub.Snapshot()
	if s.Published > 0 {
		b.ReportMetric(float64(s.Fanned+s.Conflated)/float64(s.Published), "deliveries/frame")
	}
	b.ReportMetric(s.FanoutP99.Seconds()*1e6, "fanout-p99-µs")
	hub.Close()
	wg.Wait()
}

// --- Ablations (DESIGN.md §5) -------------------------------------

// BenchmarkAblation_Mailbox compares the actor runtime's chunked-swap
// mailbox against a plain buffered channel for the bursty fan-in shape
// of AIS ingestion.
func BenchmarkAblation_Mailbox(b *testing.B) {
	b.Run("actor-mailbox", func(b *testing.B) {
		sys := actor.NewSystem("bench")
		defer sys.Shutdown(time.Second)
		done := make(chan struct{})
		target := b.N
		count := 0
		pid := sys.Spawn(actor.PropsOf(func(c *actor.Context) {
			if _, ok := c.Message().(int); ok {
				count++
				if count == target {
					close(done)
				}
			}
		}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Send(pid, i)
		}
		<-done
	})
	b.Run("buffered-channel", func(b *testing.B) {
		ch := make(chan int, 1024)
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- i
		}
		close(ch)
		<-done
	})
}

// BenchmarkAblation_SharedModel contrasts the paper's design — one
// S-VRF instance mounted once and shared by every vessel actor —
// against per-actor model copies, measuring the memory cost of the
// alternative.
func BenchmarkAblation_SharedModel(b *testing.B) {
	w := benchWindow(b)
	b.Run("shared-instance", func(b *testing.B) {
		m, _ := svrf.New(svrf.DefaultConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Forecast(w) // one instance, reused by every "actor"
		}
	})
	b.Run("per-actor-copies", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, _ := svrf.New(svrf.DefaultConfig()) // fresh weights per "actor"
			m.Forecast(w)
		}
	})
}

// BenchmarkForecastTrack measures the vessel-actor hot path: one
// ForecastTrack call over a full 48-report live history, which is
// what every position report costs once a vessel is warmed up. The
// S-VRF variant runs the compiled fused-gate network in pooled
// scratch; ForecastInto shows the same model without the Forecast
// envelope the actor fan-out requires.
func BenchmarkForecastTrack(b *testing.B) {
	start := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	origin := geo.Point{Lat: 37.5, Lon: 24.5}
	history := make([]ais.PositionReport, 0, 48)
	for i := 0; i < 48; i++ {
		at := start.Add(time.Duration(i) * 30 * time.Second)
		p := geo.DeadReckon(origin, 13, 120, at.Sub(start).Seconds())
		history = append(history, ais.PositionReport{
			MMSI: 237000001, Lat: p.Lat, Lon: p.Lon, SOG: 13, COG: 120, Timestamp: at,
		})
	}
	m, err := svrf.New(svrf.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("svrf", func(b *testing.B) {
		fc := events.SVRFForecaster{Model: m}
		if _, ok := fc.ForecastTrack(history); !ok {
			b.Fatal("forecast failed")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fc.ForecastTrack(history)
		}
	})
	b.Run("svrf-forecast-into", func(b *testing.B) {
		w := benchWindow(b)
		dst := m.ForecastInto(nil, w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = m.ForecastInto(dst, w)
		}
	})
	b.Run("kinematic", func(b *testing.B) {
		fc := events.NewKinematicForecaster()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fc.ForecastTrack(history)
		}
	})
}

// benchWindow builds one representative preprocessed window.
func benchWindow(b *testing.B) traj.Window {
	b.Helper()
	start := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	origin := geo.Point{Lat: 37.5, Lon: 24.5}
	var reports []ais.PositionReport
	for i := 0; i < 240; i++ {
		at := start.Add(time.Duration(i) * 30 * time.Second)
		p := geo.DeadReckon(origin, 13, 120, at.Sub(start).Seconds())
		reports = append(reports, ais.PositionReport{
			MMSI: 237000001, Lat: p.Lat, Lon: p.Lon, SOG: 13, COG: 120, Timestamp: at,
		})
	}
	ws := traj.BuildWindows(reports, traj.DefaultConfig())
	if len(ws) == 0 {
		b.Fatal("no bench window")
	}
	return ws[0]
}

// BenchmarkAblation_HexResolution sweeps the collision-cell resolution:
// finer cells mean more actors and more forecast fan-out, coarser cells
// mean bigger pairwise detector state.
func BenchmarkAblation_HexResolution(b *testing.B) {
	for _, res := range []int{5, 6, 7, 8, 9} {
		b.Run(fmt.Sprintf("res-%d", res), func(b *testing.B) {
			edge := hexgrid.EdgeLengthMeters(res)
			p := geo.Point{Lat: 37.5, Lon: 24.5}
			var disk []hexgrid.Cell
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cell := hexgrid.LatLonToCell(p, res)
				disk = cell.AppendGridDisk(disk[:0], 1)
			}
			b.ReportMetric(edge, "edge-m")
		})
	}
}

// BenchmarkAblation_BiLSTMvsLSTM reproduces the §4.2 architecture
// decision: identical training on both variants, compared by held-out
// ADE.
func BenchmarkAblation_BiLSTMvsLSTM(b *testing.B) {
	ds := fleetsim.Record(geo.AegeanSea, 60, 4*time.Hour, 21)
	var windows []traj.Window
	for _, tr := range ds.Tracks {
		windows = append(windows, traj.BuildWindows(tr.Reports, traj.DefaultConfig())...)
	}
	train, _, test := traj.Split(windows, 0.6, 0.0, 3)
	opt := svrf.DefaultTrainOptions()
	opt.Epochs = 8
	for _, bidir := range []bool{true, false} {
		name := "lstm"
		if bidir {
			name = "bilstm"
		}
		b.Run(name, func(b *testing.B) {
			var ade float64
			for i := 0; i < b.N; i++ {
				cfg := svrf.DefaultConfig()
				cfg.Bidirectional = bidir
				m, err := svrf.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.Train(train, opt)
				ade = svrf.EvaluateADE(m, test).MeanADE()
			}
			b.ReportMetric(ade, "mean-ADE-m")
		})
	}
}

// BenchmarkAblation_VTFFDirectModels scores the direct strategy's
// sequence models (persistence, moving average, AR(3)) and the
// indirect strategy on the same regional traffic, reporting each MAE.
func BenchmarkAblation_VTFFDirectModels(b *testing.B) {
	cfg := vtff.DefaultConfig()
	ds := fleetsim.Record(geo.AegeanSea, 120, 3*time.Hour, 31)
	cut := ds.Start.Add(ds.Duration - 35*time.Minute)
	lastWindow := cfg.WindowIndex(cut)

	histAcc := vtff.NewAccumulator(cfg)
	actAcc := vtff.NewAccumulator(cfg)
	kin := events.NewKinematicForecaster()
	var forecasts []events.Forecast
	for _, tr := range ds.Tracks {
		var hist []ais.PositionReport
		for _, r := range tr.Reports {
			p := geo.Point{Lat: r.Lat, Lon: r.Lon}
			if r.Timestamp.Before(cut) {
				histAcc.Add(r.MMSI, p, r.Timestamp)
				hist = append(hist, r)
			} else {
				actAcc.Add(r.MMSI, p, r.Timestamp)
			}
		}
		if f, ok := kin.ForecastTrack(hist); ok {
			forecasts = append(forecasts, f)
		}
	}
	history := make(map[int64]vtff.Flow)
	for _, w := range histAcc.Windows() {
		history[w] = histAcc.Window(w)
	}
	actual := make(map[int64]vtff.Flow)
	for _, w := range actAcc.Windows() {
		actual[w] = actAcc.Window(w)
	}

	score := func(pred map[int64]vtff.Flow) float64 {
		sum, n := 0.0, 0
		for h := 1; h <= 6; h++ {
			w := lastWindow + int64(h)
			if act, ok := actual[w]; ok {
				sum += vtff.MAE(pred[w], act)
				n++
			}
		}
		return sum / float64(n)
	}

	var indirect, persist, ma, ar float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indirect = score(vtff.Indirect(forecasts, cfg))
		persist = score(vtff.Direct(history, lastWindow, 6, vtff.DirectPersistence))
		ma = score(vtff.Direct(history, lastWindow, 6, vtff.DirectMovingAverage))
		ar = score(vtff.DirectARForecast(history, lastWindow, 6, 12))
	}
	b.StopTimer()
	b.ReportMetric(indirect, "indirect-MAE")
	b.ReportMetric(persist, "persistence-MAE")
	b.ReportMetric(ma, "moving-avg-MAE")
	b.ReportMetric(ar, "ar3-MAE")
}
