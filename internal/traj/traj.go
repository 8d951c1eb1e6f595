// Package traj implements the preprocessing pipeline of §4.2 and §6.1:
// 30-second downsampling of irregular AIS streams, segmentation of
// vessel trajectories into fixed-size windows of 20 past spatiotemporal
// displacements, and interpolation of the future track into six 5-minute
// target transitions up to the 30-minute horizon.
package traj

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// Config fixes the tensor geometry. The defaults are the paper's.
type Config struct {
	InputSteps  int           // past displacements per window (20)
	Horizons    int           // future transitions (6)
	HorizonStep time.Duration // spacing of future transitions (5 min)
	Downsample  time.Duration // minimum spacing of aggregated inputs (30 s)
	// MaxInputGap drops windows whose input span contains a silence
	// longer than this; forecasting across a 2-hour outage from a
	// 20-point window is meaningless.
	MaxInputGap time.Duration
	// Stride advances the window start by this many downsampled points
	// (1 = maximally overlapping windows).
	Stride int
}

// DefaultConfig returns the paper's preprocessing parameters.
func DefaultConfig() Config {
	return Config{
		InputSteps:  20,
		Horizons:    6,
		HorizonStep: 5 * time.Minute,
		Downsample:  30 * time.Second,
		MaxInputGap: 10 * time.Minute,
		Stride:      5,
	}
}

// Feature scaling: fixed constants keep inputs O(1) without
// dataset-dependent statistics, so a model transfers across regions.
const (
	// DegScale multiplies the (dlat, dlon) target transitions and
	// divides model outputs back to degrees.
	DegScale = 50.0
	// DtScale divides the dt feature (seconds to minutes).
	DtScale = 60.0
	// VelScale multiplies the velocity features (degrees per minute).
	// A vessel at 13 kn moves ~0.0033 deg/min, so typical features are
	// O(1). Feeding rates instead of raw displacements spares the
	// network from dividing by the irregular inter-report interval.
	VelScale = 300.0
)

// Downsample aggregates reports so consecutive kept reports are at
// least minGap apart — the paper's 30-second minimum rate (§4.2).
func Downsample(reports []ais.PositionReport, minGap time.Duration) []ais.PositionReport {
	if len(reports) == 0 {
		return nil
	}
	return downsampleAppend(make([]ais.PositionReport, 0, len(reports)), reports, minGap)
}

// downsampleAppend is Downsample into a caller-provided buffer: kept
// reports are appended to dst (usually dst[:0] of a reused slice).
func downsampleAppend(dst []ais.PositionReport, reports []ais.PositionReport, minGap time.Duration) []ais.PositionReport {
	if len(reports) == 0 {
		return dst
	}
	dst = append(dst, reports[0])
	last := reports[0].Timestamp
	for _, r := range reports[1:] {
		if r.Timestamp.Sub(last) >= minGap {
			dst = append(dst, r)
			last = r.Timestamp
		}
	}
	return dst
}

// Window is one training/evaluation example cut from a trajectory.
type Window struct {
	MMSI ais.MMSI
	// Input is InputSteps rows of (dlat*DegScale, dlon*DegScale,
	// dt/DtScale) between consecutive downsampled reports.
	Input [][]float64
	// Target is 2*Horizons values: per-interval (dlat, dlon) * DegScale.
	Target []float64
	// Anchor state at the window's last input report.
	LastPos  geo.Point
	LastTime time.Time
	LastSOG  float64 // knots, for the kinematic baseline
	LastCOG  float64 // degrees, for the kinematic baseline
	// Truth holds the interpolated ground-truth positions at each
	// horizon, for displacement-error scoring.
	Truth []geo.Point
}

// interpolateAt linearly interpolates the raw (pre-downsampling) track
// at time t. Reports must be time-ordered.
func interpolateAt(reports []ais.PositionReport, t time.Time) (geo.Point, bool) {
	n := len(reports)
	if n == 0 || t.Before(reports[0].Timestamp) || t.After(reports[n-1].Timestamp) {
		return geo.Point{}, false
	}
	i := sort.Search(n, func(i int) bool { return !reports[i].Timestamp.Before(t) })
	if i == 0 {
		return geo.Point{Lat: reports[0].Lat, Lon: reports[0].Lon}, true
	}
	a, b := reports[i-1], reports[i]
	span := b.Timestamp.Sub(a.Timestamp).Seconds()
	pa := geo.Point{Lat: a.Lat, Lon: a.Lon}
	pb := geo.Point{Lat: b.Lat, Lon: b.Lon}
	if span <= 0 {
		return pa, true
	}
	// Long silences make linear interpolation fiction; refuse them.
	if span > 20*60 {
		return geo.Point{}, false
	}
	f := t.Sub(a.Timestamp).Seconds() / span
	return geo.Interpolate(pa, pb, f), true
}

// BuildWindows cuts one vessel's report stream into windows. Reports
// must be time-ordered; they are downsampled internally.
func BuildWindows(reports []ais.PositionReport, cfg Config) []Window {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	ds := Downsample(reports, cfg.Downsample)
	need := cfg.InputSteps + 1
	if len(ds) < need {
		return nil
	}
	var out []Window
	for start := 0; start+need <= len(ds); start += cfg.Stride {
		w, ok := buildOne(ds[start:start+need], reports, cfg)
		if ok {
			out = append(out, w)
		}
	}
	return out
}

func buildOne(seg []ais.PositionReport, raw []ais.PositionReport, cfg Config) (Window, bool) {
	last := seg[len(seg)-1]
	w := Window{
		MMSI:     last.MMSI,
		LastPos:  geo.Point{Lat: last.Lat, Lon: last.Lon},
		LastTime: last.Timestamp,
		LastSOG:  last.SOG,
		LastCOG:  last.COG,
	}
	w.Input = make([][]float64, cfg.InputSteps)
	for i := 0; i < cfg.InputSteps; i++ {
		row, ok := featureRow(seg[i], seg[i+1], cfg.MaxInputGap)
		if !ok {
			return Window{}, false
		}
		w.Input[i] = row
	}

	// Targets: interpolate the raw track at each horizon and express it
	// as per-interval displacement transitions.
	w.Target = make([]float64, 0, 2*cfg.Horizons)
	w.Truth = make([]geo.Point, 0, cfg.Horizons)
	prev := w.LastPos
	for h := 1; h <= cfg.Horizons; h++ {
		t := last.Timestamp.Add(time.Duration(h) * cfg.HorizonStep)
		p, ok := interpolateAt(raw, t)
		if !ok {
			return Window{}, false
		}
		dLat, dLon := geo.Displacement(prev, p)
		w.Target = append(w.Target, dLat*DegScale, dLon*DegScale)
		w.Truth = append(w.Truth, p)
		prev = p
	}
	return w, true
}

// PredictedPositionsInto converts a model output vector (2*Horizons
// scaled transitions) into absolute positions starting from the anchor.
// dst is resized to len(output)/2 positions, reusing its backing array
// when it has the capacity. It returns the filled slice.
func PredictedPositionsInto(dst []geo.Point, anchor geo.Point, output []float64) []geo.Point {
	n := len(output) / 2
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]geo.Point, n)
	}
	cur := anchor
	for i := 0; i < n; i++ {
		cur = geo.Offset(cur, output[2*i]/DegScale, output[2*i+1]/DegScale)
		dst[i] = cur
	}
	return dst
}

// MinLiveReports is the fewest downsampled reports a live vessel needs
// before a model input can be built (shorter histories are left-padded
// up to the fixed tensor size, echoing the fixed-size-input adaptation
// of §4.2).
const MinLiveReports = 6

// InputFromReports converts the most recent reports of a live vessel
// into a model input sequence (the on-stream path of the vessel actor)
// plus the anchor report predictions must be applied from: the last
// report that entered the input, which can trail the newest raw report
// by up to the downsampling interval. Histories shorter than steps+1
// downsampled reports are left-padded by repeating the earliest feature
// row; below MinLiveReports ok is false.
func InputFromReports(reports []ais.PositionReport, steps int, downsample time.Duration) (input [][]float64, anchor ais.PositionReport, ok bool) {
	return (&InputBuffer{}).InputFromReports(reports, steps, downsample)
}

// InputBuffer holds the scratch storage of InputFromReports — the
// downsampling buffer, the row headers and one flat backing array for
// every feature row — so the vessel-actor hot path can rebuild a model
// input on every report without allocating. Buffers are not safe for
// concurrent use; draw one per goroutine from GetInputBuffer, or keep
// one per actor. The input returned by InputFromReports aliases the
// buffer and is valid until the next call or until the buffer is
// returned to the pool.
type InputBuffer struct {
	ds   []ais.PositionReport
	rows [][]float64
	flat []float64
}

var inputPool = sync.Pool{New: func() any { return new(InputBuffer) }}

// GetInputBuffer draws a reusable input buffer from a process-wide pool.
func GetInputBuffer() *InputBuffer { return inputPool.Get().(*InputBuffer) }

// PutInputBuffer returns a buffer to the pool. The caller must be done
// with every input slice the buffer produced.
func PutInputBuffer(b *InputBuffer) { inputPool.Put(b) }

// InputFromReports is the package-level InputFromReports built inside
// the receiver's reused storage: after the buffer has warmed up to the
// caller's history length it performs no allocations.
func (b *InputBuffer) InputFromReports(reports []ais.PositionReport, steps int, downsample time.Duration) (input [][]float64, anchor ais.PositionReport, ok bool) {
	b.ds = downsampleAppend(b.ds[:0], reports, downsample)
	ds := b.ds
	if len(ds) < MinLiveReports {
		return nil, ais.PositionReport{}, false
	}
	if len(ds) > steps+1 {
		ds = ds[len(ds)-steps-1:]
	}
	if cap(b.rows) >= steps {
		b.rows = b.rows[:steps]
	} else {
		b.rows = make([][]float64, steps)
	}
	if cap(b.flat) >= 3*steps {
		b.flat = b.flat[:3*steps]
	} else {
		b.flat = make([]float64, 3*steps)
	}
	// Build the real rows right-aligned in the fixed tensor, then
	// left-pad by repeating the earliest real row (sharing its storage,
	// exactly as the allocating path shares the prepended row header).
	n := len(ds) - 1
	pad := steps - n
	for i := 0; i < n; i++ {
		row := b.flat[3*(pad+i) : 3*(pad+i)+3]
		if !featureRowInto(row, ds[i], ds[i+1], 0) {
			return nil, ais.PositionReport{}, false
		}
		b.rows[pad+i] = row
	}
	for j := 0; j < pad; j++ {
		b.rows[j] = b.rows[pad]
	}
	return b.rows, ds[len(ds)-1], true
}

// featureRow builds one input row from two consecutive reports:
// (vlat*VelScale, vlon*VelScale, dt/DtScale) where the velocities are
// in degrees per minute. maxGap of 0 disables the gap check.
func featureRow(a, b ais.PositionReport, maxGap time.Duration) ([]float64, bool) {
	row := make([]float64, 3)
	if !featureRowInto(row, a, b, maxGap) {
		return nil, false
	}
	return row, true
}

// featureRowInto writes the feature row for the report pair into dst,
// which must have length 3. It reports whether the pair is usable.
func featureRowInto(dst []float64, a, b ais.PositionReport, maxGap time.Duration) bool {
	dt := b.Timestamp.Sub(a.Timestamp)
	if dt <= 0 || (maxGap > 0 && dt > maxGap) {
		return false
	}
	dLat, dLon := geo.Displacement(
		geo.Point{Lat: a.Lat, Lon: a.Lon},
		geo.Point{Lat: b.Lat, Lon: b.Lon})
	mins := dt.Minutes()
	dst[0] = dLat / mins * VelScale
	dst[1] = dLon / mins * VelScale
	dst[2] = dt.Seconds() / DtScale
	return true
}

// Split shuffles windows with the seed and divides them into
// train/validation/test fractions (the paper uses 50/25/25).
func Split(windows []Window, trainFrac, valFrac float64, seed int64) (train, val, test []Window) {
	idx := make([]int, len(windows))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nTrain := int(float64(len(idx)) * trainFrac)
	nVal := int(float64(len(idx)) * valFrac)
	for i, id := range idx {
		switch {
		case i < nTrain:
			train = append(train, windows[id])
		case i < nTrain+nVal:
			val = append(val, windows[id])
		default:
			test = append(test, windows[id])
		}
	}
	return train, val, test
}
