// Package svrf implements the paper's Short-term Vessel Route
// Forecasting model (§4.2, Figure 3): a BiLSTM over the last 20
// spatiotemporal displacements of a vessel followed by a fully
// connected layer emitting six (Δlat, Δlon) transitions at 5-minute
// intervals up to a 30-minute horizon, with L1 in-layer regularisation —
// plus the linear kinematic baseline the evaluation compares against
// (Table 1).
//
// A single trained Model is safe for concurrent forecasting and is
// intended to be mounted once per process and shared by every vessel
// actor, as the paper's integration does.
package svrf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
	"seatwin/internal/metrics"
	"seatwin/internal/nn"
	"seatwin/internal/traj"
)

// Predictor forecasts a vessel's future positions from a preprocessed
// trajectory window.
type Predictor interface {
	// Name identifies the predictor in experiment output.
	Name() string
	// Forecast returns one position per horizon (6 positions spanning
	// 5..30 minutes for the default configuration).
	Forecast(w traj.Window) []geo.Point
}

// Kinematic is the linear baseline of §6.1: dead reckoning from the
// last reported position, speed over ground and course over ground.
type Kinematic struct {
	Horizons    int
	HorizonStep time.Duration
}

// NewKinematic returns the baseline with the paper's geometry.
func NewKinematic() Kinematic {
	return Kinematic{Horizons: 6, HorizonStep: 5 * time.Minute}
}

// Name implements Predictor.
func (k Kinematic) Name() string { return "Linear Kinematic Model" }

// Forecast implements Predictor.
func (k Kinematic) Forecast(w traj.Window) []geo.Point {
	return k.ForecastInto(nil, w)
}

// ForecastInto is Forecast into a caller-provided buffer, reused when
// it has the capacity for Horizons positions.
func (k Kinematic) ForecastInto(dst []geo.Point, w traj.Window) []geo.Point {
	if cap(dst) >= k.Horizons {
		dst = dst[:k.Horizons]
	} else {
		dst = make([]geo.Point, k.Horizons)
	}
	sog, cog := w.LastSOG, w.LastCOG
	if sog < 0 {
		sog = 0
	}
	for h := 1; h <= k.Horizons; h++ {
		dt := time.Duration(h) * k.HorizonStep
		dst[h-1] = geo.DeadReckon(w.LastPos, sog, cog, dt.Seconds())
	}
	return dst
}

// Config shapes the S-VRF network. Defaults follow the paper's reduced
// architecture: fixed 20-step input, BiLSTM, 6-transition output.
type Config struct {
	InputSteps  int
	Hidden      int
	Horizons    int
	HorizonStep time.Duration
	Downsample  time.Duration
	// Bidirectional selects BiLSTM (the paper's final architecture)
	// versus plain LSTM (its earlier iteration, kept for the ablation).
	Bidirectional bool
	L1            float64
	Seed          int64
}

// DefaultConfig returns the Figure 3 architecture.
func DefaultConfig() Config {
	return Config{
		InputSteps:    20,
		Hidden:        32,
		Horizons:      6,
		HorizonStep:   5 * time.Minute,
		Downsample:    30 * time.Second,
		Bidirectional: true,
		L1:            1e-5,
		Seed:          1,
	}
}

// Model is the trained S-VRF network.
type Model struct {
	cfg Config
	net *nn.SeqRegressor

	// weightsMu serialises everything that mutates or reads the raw
	// network weights: Train, SwapWeightsFrom, Clone, SaveFile and the
	// slow compile path. The forecast hot path never takes
	// it — serving reads go through the compiled snapshot below.
	weightsMu sync.Mutex
	// gen counts weight generations. It is bumped (under weightsMu)
	// every time the weights change; a compiled snapshot is current only
	// while its recorded generation matches.
	gen atomic.Uint64
	// compiled caches the fused inference snapshot of the current
	// weights, tagged with the generation it was compiled from.
	// Forecasting goes through it instead of the reference Predict, so
	// the vessel-actor hot path runs the zero-allocation kernel.
	compiled atomic.Pointer[compiledSnap]
}

// compiledSnap pairs an inference snapshot with the weight generation
// it was compiled from, so a snapshot built from weights that have
// since moved can never be mistaken for current.
type compiledSnap struct {
	gen uint64
	c   *nn.Compiled
}

// compiledNet returns an inference snapshot of the current weight
// generation, compiling one on first use or after the weights moved.
//
// The fast path is two atomic loads and a comparison — no locks, no
// allocation. The slow path takes weightsMu so a compile can never
// overlap a weight mutation: the earlier lock-free design (compile,
// then CAS over nil) could read half-updated weights while Train was
// writing them and publish that torn snapshot *after* Train's
// invalidation, pinning stale weights until the next Train. Tagging
// snapshots with the generation they came from makes that impossible:
// a snapshot compiled from generation g is ignored once the live
// generation has moved past g.
func (m *Model) compiledNet() *nn.Compiled {
	if s := m.compiled.Load(); s != nil && s.gen == m.gen.Load() {
		return s.c
	}
	return m.compileSlow()
}

func (m *Model) compileSlow() *nn.Compiled {
	m.weightsMu.Lock()
	defer m.weightsMu.Unlock()
	// Re-check under the lock: another forecaster may have compiled
	// while this one waited.
	gen := m.gen.Load()
	if s := m.compiled.Load(); s != nil && s.gen == gen {
		return s.c
	}
	c := m.net.Compile()
	m.compiled.Store(&compiledSnap{gen: gen, c: c})
	return c
}

// publishCompiledLocked compiles the current weights and publishes the
// snapshot for the current generation. Callers must hold weightsMu and
// have already bumped gen for the new weights.
func (m *Model) publishCompiledLocked() {
	m.compiled.Store(&compiledSnap{gen: m.gen.Load(), c: m.net.Compile()})
}

// New builds an untrained model.
func New(cfg Config) (*Model, error) {
	net, err := nn.NewSeqRegressor(nn.Config{
		InputDim:      3,
		Hidden:        cfg.Hidden,
		OutputDim:     2 * cfg.Horizons,
		Bidirectional: cfg.Bidirectional,
		L1:            cfg.L1,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, net: net}, nil
}

// Name implements Predictor.
func (m *Model) Name() string {
	if m.cfg.Bidirectional {
		return "S-VRF"
	}
	return "S-VRF (LSTM)"
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Forecast implements Predictor.
func (m *Model) Forecast(w traj.Window) []geo.Point {
	return m.ForecastInto(nil, w)
}

// ForecastInto is Forecast into a caller-provided buffer: the compiled
// network runs in pooled scratch and the positions are written into
// dst (reused when it has capacity for Horizons points). Steady-state
// calls with a warm dst do not allocate.
func (m *Model) ForecastInto(dst []geo.Point, w traj.Window) []geo.Point {
	c := m.compiledNet()
	s := c.GetScratch()
	out := c.PredictInto(nil, w.Input, s)
	dst = traj.PredictedPositionsInto(dst, w.LastPos, out)
	c.PutScratch(s)
	return dst
}

// ForecastReports runs the live on-stream path: it converts the most
// recent reports into the model input and forecasts from the anchor
// (the last report that entered the input). It also returns the
// anchor so callers can timestamp the forecast points correctly. ok is
// false when the history is too short.
func (m *Model) ForecastReports(reports []ais.PositionReport) (pts []geo.Point, anchor ais.PositionReport, ok bool) {
	return m.ForecastReportsInto(nil, reports)
}

// ForecastReportsInto is ForecastReports into a caller-provided
// position buffer. The model input is assembled in a pooled
// traj.InputBuffer and inference runs in pooled scratch, so with a
// warm dst the per-report cost of the vessel-actor hot path is
// allocation-free.
func (m *Model) ForecastReportsInto(dst []geo.Point, reports []ais.PositionReport) (pts []geo.Point, anchor ais.PositionReport, ok bool) {
	b := traj.GetInputBuffer()
	input, anchor, ok := b.InputFromReports(reports, m.cfg.InputSteps, m.cfg.Downsample)
	if !ok {
		traj.PutInputBuffer(b)
		return nil, ais.PositionReport{}, false
	}
	c := m.compiledNet()
	s := c.GetScratch()
	out := c.PredictInto(nil, input, s)
	pts = traj.PredictedPositionsInto(dst, geo.Point{Lat: anchor.Lat, Lon: anchor.Lon}, out)
	c.PutScratch(s)
	traj.PutInputBuffer(b)
	return pts, anchor, true
}

// ForecastReportsBatch runs ForecastReports over many vessels' report
// histories at once, pushing every usable input through the compiled
// network's batch path (the bulk shape of the Figure 6 replay and the
// VTFF rasterisation). workers follows nn.(*Compiled).PredictBatch
// semantics: <= 0 picks a sensible worker count, 1 stays sequential.
// The returned slices are indexed like histories; ok[i] is false when
// history i was too short to forecast, in which case pts[i] is nil.
func (m *Model) ForecastReportsBatch(histories [][]ais.PositionReport, workers int) (pts [][]geo.Point, anchors []ais.PositionReport, ok []bool) {
	pts = make([][]geo.Point, len(histories))
	anchors = make([]ais.PositionReport, len(histories))
	ok = make([]bool, len(histories))
	seqs := make([][][]float64, 0, len(histories))
	idx := make([]int, 0, len(histories))
	for i, h := range histories {
		// Inputs must all be alive for the batch call, so they are built
		// with the allocating path rather than a shared pooled buffer.
		input, anchor, good := traj.InputFromReports(h, m.cfg.InputSteps, m.cfg.Downsample)
		if !good {
			continue
		}
		anchors[i] = anchor
		ok[i] = true
		seqs = append(seqs, input)
		idx = append(idx, i)
	}
	if len(seqs) == 0 {
		return pts, anchors, ok
	}
	outs := m.compiledNet().PredictBatch(nil, seqs, workers)
	for j, i := range idx {
		pts[i] = traj.PredictedPositionsInto(nil, geo.Point{Lat: anchors[i].Lat, Lon: anchors[i].Lon}, outs[j])
	}
	return pts, anchors, ok
}

// TrainOptions controls Train.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	LR        float64
	Workers   int
	Seed      int64
	// Progress receives per-epoch training loss; return false to stop.
	Progress func(epoch int, loss float64) bool
}

// DefaultTrainOptions trains quickly at simulation scale.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 12, BatchSize: 64, LR: 2e-3, Workers: 0, Seed: 1}
}

// Train fits the network on preprocessed windows and returns the final
// mean training loss. Training runs through the compiled fused-gate
// BPTT path (nn.CompileTrain; the reference nn.SeqRegressor.Fit is its
// parity oracle in internal/nn's tests) and records throughput, clip
// events and per-epoch loss into the process-wide metrics.Training
// recorder, so a serving process that retrains exposes the run on its
// /metrics endpoint.
func (m *Model) Train(windows []traj.Window, opt TrainOptions) float64 {
	samples := make([]nn.Sample, len(windows))
	for i, w := range windows {
		samples[i] = nn.Sample{Seq: w.Input, Target: w.Target}
	}
	var batchHint uint64
	epochStart := time.Now()
	fitOpt := nn.FitOptions{
		Epochs:    opt.Epochs,
		BatchSize: opt.BatchSize,
		LR:        opt.LR,
		Workers:   opt.Workers,
		Seed:      opt.Seed,
		OnBatch: func(n int, clipped bool) {
			batchHint++
			metrics.Training.Batch(batchHint, n, clipped)
		},
		Progress: func(epoch int, loss float64) bool {
			metrics.Training.Epoch(loss, time.Since(epochStart))
			epochStart = time.Now()
			if opt.Progress != nil {
				return opt.Progress(epoch, loss)
			}
			return true
		},
	}
	// weightsMu is held for the whole fit so no compile can observe
	// half-updated weights. Forecasts do not block: the previous
	// generation's snapshot stays published — and valid — for the whole
	// run (it shares no storage with the live network); the generation
	// bump below is what retires it.
	m.weightsMu.Lock()
	loss := m.net.CompileTrain().Fit(samples, fitOpt)
	m.gen.Add(1)
	m.weightsMu.Unlock()
	metrics.Training.Run()
	return loss
}

// Generation returns the current weight generation: 0 for freshly
// constructed or loaded weights, incremented by every Train and
// SwapWeightsFrom. Observability and tests use it to tell whether a
// hot-swap landed.
func (m *Model) Generation() uint64 { return m.gen.Load() }

// Clone returns a new Model with the same configuration and a copy of
// the current weights — the starting point for a warm-started candidate
// retrain. The clone shares no storage with the receiver.
func (m *Model) Clone() (*Model, error) {
	c, err := New(m.cfg)
	if err != nil {
		return nil, err
	}
	m.weightsMu.Lock()
	defer m.weightsMu.Unlock()
	if err := c.net.CopyWeightsFrom(m.net); err != nil {
		return nil, err
	}
	return c, nil
}

// SwapWeightsFrom atomically replaces the receiver's weights with the
// candidate's — the model-lifecycle hot-swap. The new compiled snapshot
// is built eagerly under the lock, so the first forecast after a swap
// serves the new weights without paying a cold compile; forecasts in
// flight during the swap keep the previous snapshot and never block.
// The two models must share the same network geometry. Callers must not
// swap two models into each other concurrently (lock-order inversion).
func (m *Model) SwapWeightsFrom(candidate *Model) error {
	if candidate == m {
		return fmt.Errorf("svrf: cannot swap a model's weights with itself")
	}
	candidate.weightsMu.Lock()
	defer candidate.weightsMu.Unlock()
	m.weightsMu.Lock()
	defer m.weightsMu.Unlock()
	if err := m.net.CopyWeightsFrom(candidate.net); err != nil {
		return err
	}
	m.gen.Add(1)
	m.publishCompiledLocked()
	return nil
}

// SaveFile writes the model to a file atomically.
func (m *Model) SaveFile(path string) error {
	m.weightsMu.Lock()
	defer m.weightsMu.Unlock()
	return m.net.SaveFile(path)
}

// LoadFile reads a model saved by SaveFile.
func LoadFile(path string, cfg Config) (*Model, error) {
	net, err := nn.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, net: net}, nil
}

// EvaluateADE scores a predictor on test windows, returning per-horizon
// average displacement error in meters — the Table 1 metric.
func EvaluateADE(p Predictor, windows []traj.Window) *metrics.DisplacementError {
	if len(windows) == 0 {
		return metrics.NewDisplacementError(0)
	}
	horizons := len(windows[0].Truth)
	de := metrics.NewDisplacementError(horizons)
	// Predictors with a buffer-reusing variant (the S-VRF model and the
	// kinematic baseline both have one) are scored through it, so bulk
	// evaluation over tens of thousands of windows reuses one position
	// buffer instead of allocating per window.
	type intoForecaster interface {
		ForecastInto(dst []geo.Point, w traj.Window) []geo.Point
	}
	var (
		buf  []geo.Point
		into intoForecaster
	)
	if f, ok := p.(intoForecaster); ok {
		into = f
	}
	for _, w := range windows {
		var pred []geo.Point
		if into != nil {
			buf = into.ForecastInto(buf, w)
			pred = buf
		} else {
			pred = p.Forecast(w)
		}
		for h := 0; h < horizons && h < len(pred); h++ {
			de.Add(h, geo.Haversine(pred[h], w.Truth[h]))
		}
	}
	return de
}
