package experiments

import (
	"fmt"
	"strings"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/pipeline"
	"seatwin/internal/vtff"

	"seatwin/internal/ais"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
)

// Figure6Result reproduces Figure 6: the average per-message processing
// time as the live actor population grows.
type Figure6Result struct {
	Series   []pipeline.Sample
	Stats    pipeline.Stats
	Duration time.Duration
	Vessels  int
	Messages int
}

// RunFigure6 streams a simulated global fleet through the full actor
// pipeline. The forecaster may be a trained S-VRF model ("selected as a
// typical use case" in §6.3 — for latency purposes an untrained model
// has identical compute cost) or the kinematic baseline for an
// ablation. ratePerSec > 0 paces ingestion like the paper's live feed;
// 0 replays at maximum speed (saturation test).
func RunFigure6(fc events.TrackForecaster, vessels, messages int, ratePerSec float64, seed int64) (Figure6Result, error) {
	p, err := pipeline.New(pipeline.DefaultConfig(fc))
	if err != nil {
		return Figure6Result{}, err
	}
	defer p.Shutdown(10 * time.Second)
	res, err := pipeline.RunScalability(p, pipeline.ScalabilityConfig{
		Vessels:    vessels,
		Messages:   messages,
		Seed:       seed,
		Consumers:  4,
		Partitions: 8,
		RatePerSec: ratePerSec,
	})
	if err != nil {
		return Figure6Result{}, err
	}
	return Figure6Result{
		Series:   res.Series,
		Stats:    res.Stats,
		Duration: res.Duration,
		Vessels:  vessels,
		Messages: messages,
	}, nil
}

// Format renders the Figure 6 series as rows (actor count, mean
// processing time of each block of at least 500 reports), with the
// summary the paper quotes.
func (r Figure6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: processing time vs live actors (%d vessels, %d messages, wall %v)\n",
		r.Vessels, r.Messages, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&b, "%12s %12s %25s\n", "vessels", "actors", "mean per 500-report block")
	step := len(r.Series) / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Series); i += step {
		s := r.Series[i]
		fmt.Fprintf(&b, "%12d %12d %25s\n", s.Vessels, s.Actors, s.AvgProcess.Round(time.Microsecond))
	}
	if n := len(r.Series); n > 0 {
		s := r.Series[n-1]
		fmt.Fprintf(&b, "%12d %12d %25s  (final)\n", s.Vessels, s.Actors, s.AvgProcess.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "latency: mean %v p95 %v p99 %v max %v; forecasts %d; dead letters %d\n",
		r.Stats.Latency.Mean.Round(time.Microsecond),
		r.Stats.Latency.P95.Round(time.Microsecond),
		r.Stats.Latency.P99.Round(time.Microsecond),
		r.Stats.Latency.Max.Round(time.Microsecond),
		r.Stats.Forecasts, r.Stats.DeadLetter)
	return b.String()
}

// DatasetResult reports the §6.1 stream statistics of the simulated
// dataset next to the paper's.
type DatasetResult struct {
	Messages     int
	Vessels      int
	IntervalMean float64
	IntervalStd  float64
}

// RunDatasetStats summarises a trained model's source dataset.
func RunDatasetStats(tm TrainedModel) DatasetResult {
	return DatasetResult{
		Messages:     tm.Messages,
		Vessels:      tm.Vessels,
		IntervalMean: tm.IntervalMean,
		IntervalStd:  tm.IntervalStd,
	}
}

// Format renders the dataset comparison.
func (r DatasetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset statistics (after 30 s downsampling)\n")
	fmt.Fprintf(&b, "%-26s %12s %12s\n", "", "simulated", "paper §6.1")
	fmt.Fprintf(&b, "%-26s %12d %12s\n", "AIS messages", r.Messages, "14,617,382")
	fmt.Fprintf(&b, "%-26s %12d %12s\n", "distinct vessels", r.Vessels, "14,895")
	fmt.Fprintf(&b, "%-26s %11.1fs %12s\n", "mean sampling interval", r.IntervalMean, "78.6 s")
	fmt.Fprintf(&b, "%-26s %11.1fs %12s\n", "interval std deviation", r.IntervalStd, "418.3 s")
	return b.String()
}

// VTFFResult reproduces the indirect-vs-direct comparison §5.1 adopts
// from [17].
type VTFFResult struct {
	Comparison vtff.Comparison
	Vessels    int
}

// RunVTFF records regional traffic, forecasts each vessel at a cut
// time and compares indirect rasterised forecasts against the direct
// sequence baseline on the actual future flows.
func RunVTFF(tm TrainedModel, seed int64) VTFFResult {
	cfg := vtff.DefaultConfig()
	ds := fleetsim.Record(geo.AegeanSea, 150, 3*time.Hour, seed)

	cut := ds.Start.Add(ds.Duration - 35*time.Minute)
	lastWindow := cfg.WindowIndex(cut)

	histAcc := vtff.NewAccumulator(cfg)
	actAcc := vtff.NewAccumulator(cfg)
	fc := events.SVRFForecaster{Model: tm.Model}
	histories := make([][]ais.PositionReport, 0, len(ds.Tracks))
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
		histories = append(histories, hist)
	}
	// One batched pass of the compiled network over the whole fleet.
	forecasts := events.ForecastTracks(fc, histories)
	history := make(map[int64]vtff.Flow)
	for _, w := range histAcc.Windows() {
		history[w] = histAcc.Window(w)
	}
	actual := make(map[int64]vtff.Flow)
	for _, w := range actAcc.Windows() {
		actual[w] = actAcc.Window(w)
	}
	return VTFFResult{
		Comparison: vtff.Compare(forecasts, history, actual, lastWindow, 6, cfg),
		Vessels:    len(ds.Tracks),
	}
}

// Format renders the comparison with the paper's cited benchmark.
func (r VTFFResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Vessel Traffic Flow Forecasting: indirect (S-VRF raster) vs direct (sequence)\n")
	fmt.Fprintf(&b, "vessels %d, windows %d\n", r.Vessels, r.Comparison.Windows)
	fmt.Fprintf(&b, "indirect MAE %.3f vessels/cell, direct MAE %.3f vessels/cell\n",
		r.Comparison.IndirectMAE, r.Comparison.DirectMAE)
	fmt.Fprintf(&b, "indirect advantage %.2fx (the paper cites [17]: often exceeding 1.5x)\n",
		r.Comparison.AdvantageFactor())
	return b.String()
}
