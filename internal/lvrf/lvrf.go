// Package lvrf implements the paper's Long-term Vessel Route
// Forecasting component (§4.1): an EnvClus*-style model that mines
// common pathways from historical AIS trips between port pairs,
// represents them as a weighted transition graph of clustered
// waypoints, predicts the route a vessel will follow to its destination
// port, selects branches at route junctions with classifiers over
// vessel-specific features, and aggregates "Patterns of Life"
// statistics for the traffic between the ports.
package lvrf

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"seatwin/internal/geo"
	"seatwin/internal/metrics"
)

// Features are the vessel-specific attributes the junction classifiers
// condition on (§4.1 lists type, length, draught, DWT among them).
type Features struct {
	ShipType uint8
	Length   float64 // meters
	Draught  float64 // meters
}

// Trip is one historical voyage between two ports.
type Trip struct {
	MMSI     uint32
	Features Features
	Origin   string
	Dest     string
	Points   []geo.Point
	Times    []time.Time
}

// Duration returns the trip's elapsed time.
func (t Trip) Duration() time.Duration {
	if len(t.Times) < 2 {
		return 0
	}
	return t.Times[len(t.Times)-1].Sub(t.Times[0])
}

// Length returns the sailed distance in meters.
func (t Trip) Length() float64 {
	total := 0.0
	for i := 1; i < len(t.Points); i++ {
		total += geo.Haversine(t.Points[i-1], t.Points[i])
	}
	return total
}

// Config controls model construction.
type Config struct {
	// Levels is the number of equidistant slices each trip is resampled
	// to; graph nodes live on these slices.
	Levels int
	// ClusterRadiusMeters merges resampled points on the same slice
	// into one node when they fall within this radius of the node
	// centroid.
	ClusterRadiusMeters float64
	// MinTrips is the minimum number of historical trips an OD pair
	// needs before a dedicated lane model is built.
	MinTrips int
	// Workers bounds how many OD-pair lane graphs are built
	// concurrently by Train. Zero or one builds sequentially; the
	// result is identical for any value (lane construction is
	// per-pair-deterministic and the merge is ordered).
	Workers int
	// OnLane, when non-nil, is invoked once per built lane (from the
	// merging goroutine, in deterministic pair order) — the training
	// observability hook.
	OnLane func(origin, dest string, trips int)
}

// DefaultConfig mirrors the granularity EnvClus* operates at.
func DefaultConfig() Config {
	return Config{Levels: 40, ClusterRadiusMeters: 8000, MinTrips: 3}
}

type odKey struct{ origin, dest string }

// node is one clustered waypoint on a slice.
type node struct {
	centroid geo.Point
	count    int
}

// edge is a weighted transition between nodes of consecutive slices,
// carrying the mean features of the vessels that used it — the
// junction classifier's evidence.
type edge struct {
	to      int
	weight  int
	featSum Features
}

func (e *edge) meanFeatures() Features {
	w := float64(e.weight)
	if w == 0 {
		return Features{}
	}
	return Features{
		ShipType: uint8(float64(e.featSum.ShipType) / w),
		Length:   e.featSum.Length / w,
		Draught:  e.featSum.Draught / w,
	}
}

// laneGraph is the weighted transition graph of one OD pair.
type laneGraph struct {
	levels [][]node
	// edges[level][nodeIdx] lists transitions into level+1.
	edges [][][]edge
	trips int
	pol   PatternsOfLife
}

// PatternsOfLife aggregates the historical mobility statistics the UI
// presents alongside a route forecast (Figure 4b).
type PatternsOfLife struct {
	Trips         int
	MeanDuration  time.Duration
	StdDuration   time.Duration
	MeanLengthM   float64
	MeanSpeedKn   float64
	DistinctMMSIs int
	TypeHistogram map[uint8]int
}

// Model holds the per-OD-pair lane graphs.
type Model struct {
	cfg   Config
	lanes map[odKey]*laneGraph
	ports map[string]geo.Point
}

// Train builds the model from historical trips. Ports maps port names
// to coordinates and is used for fallback forecasting of unseen pairs.
// Lane graphs of distinct OD pairs share nothing, so cfg.Workers of
// them are built concurrently; pairs are processed in sorted order and
// merged into the model on the calling goroutine, so the result (and
// the OnLane callback order) is identical for every worker count.
func Train(trips []Trip, ports map[string]geo.Point, cfg Config) *Model {
	if cfg.Levels <= 1 {
		workers, onLane := cfg.Workers, cfg.OnLane
		cfg = DefaultConfig()
		cfg.Workers, cfg.OnLane = workers, onLane
	}
	m := &Model{cfg: cfg, lanes: make(map[odKey]*laneGraph), ports: ports}
	grouped := make(map[odKey][]Trip)
	for _, t := range trips {
		if len(t.Points) < 2 || t.Origin == t.Dest {
			continue
		}
		k := odKey{t.Origin, t.Dest}
		grouped[k] = append(grouped[k], t)
	}
	keys := make([]odKey, 0, len(grouped))
	for k, group := range grouped {
		if len(group) >= cfg.MinTrips {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].dest < keys[j].dest
	})

	workers := cfg.Workers
	if workers > len(keys) {
		workers = len(keys)
	}
	lanes := make([]*laneGraph, len(keys))
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					lanes[i] = buildLane(grouped[keys[i]], cfg)
				}
			}()
		}
		for i := range keys {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i, k := range keys {
			lanes[i] = buildLane(grouped[k], cfg)
		}
	}
	for i, k := range keys {
		m.lanes[k] = lanes[i]
		metrics.Training.Lane(uint64(i))
		if cfg.OnLane != nil {
			cfg.OnLane(k.origin, k.dest, lanes[i].trips)
		}
	}
	return m
}

// Lanes returns the number of OD-pair lane graphs the model holds —
// the size gauge the lifecycle trainer reports after a rebuild.
func (m *Model) Lanes() int { return len(m.lanes) }

// Pairs returns the OD pairs the model has dedicated lanes for.
func (m *Model) Pairs() [][2]string {
	out := make([][2]string, 0, len(m.lanes))
	for k := range m.lanes {
		out = append(out, [2]string{k.origin, k.dest})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// resample places a trip's polyline onto `levels` equidistant slices.
func resample(points []geo.Point, levels int) []geo.Point {
	// Cumulative arc length.
	cum := make([]float64, len(points))
	for i := 1; i < len(points); i++ {
		cum[i] = cum[i-1] + geo.Haversine(points[i-1], points[i])
	}
	total := cum[len(cum)-1]
	out := make([]geo.Point, levels)
	if total == 0 {
		for i := range out {
			out[i] = points[0]
		}
		return out
	}
	j := 0
	for i := 0; i < levels; i++ {
		target := total * float64(i) / float64(levels-1)
		for j < len(cum)-2 && cum[j+1] < target {
			j++
		}
		span := cum[j+1] - cum[j]
		f := 0.0
		if span > 0 {
			f = (target - cum[j]) / span
		}
		out[i] = geo.Interpolate(points[j], points[j+1], f)
	}
	return out
}

// buildLane clusters the group's resampled trips level by level and
// connects consecutive levels with weighted, feature-annotated edges.
func buildLane(group []Trip, cfg Config) *laneGraph {
	lg := &laneGraph{trips: len(group)}
	resampled := make([][]geo.Point, len(group))
	for i, t := range group {
		resampled[i] = resample(t.Points, cfg.Levels)
	}
	// Cluster each level greedily: a point joins the nearest existing
	// node within the radius, else founds a new node.
	assignment := make([][]int, len(group)) // trip -> level -> node idx
	for i := range assignment {
		assignment[i] = make([]int, cfg.Levels)
	}
	lg.levels = make([][]node, cfg.Levels)
	for lvl := 0; lvl < cfg.Levels; lvl++ {
		for ti := range group {
			p := resampled[ti][lvl]
			bestIdx, bestDist := -1, cfg.ClusterRadiusMeters
			for ni, n := range lg.levels[lvl] {
				if d := geo.FastDistance(p, n.centroid); d < bestDist {
					bestIdx, bestDist = ni, d
				}
			}
			if bestIdx < 0 {
				lg.levels[lvl] = append(lg.levels[lvl], node{centroid: p, count: 1})
				assignment[ti][lvl] = len(lg.levels[lvl]) - 1
			} else {
				// Update the running centroid.
				n := &lg.levels[lvl][bestIdx]
				w := float64(n.count)
				n.centroid = geo.Point{
					Lat: (n.centroid.Lat*w + p.Lat) / (w + 1),
					Lon: geo.NormalizeLon((n.centroid.Lon*w + p.Lon) / (w + 1)),
				}
				n.count++
				assignment[ti][lvl] = bestIdx
			}
		}
	}
	// Edges with feature accumulation.
	lg.edges = make([][][]edge, cfg.Levels-1)
	for lvl := 0; lvl < cfg.Levels-1; lvl++ {
		lg.edges[lvl] = make([][]edge, len(lg.levels[lvl]))
	}
	for ti, t := range group {
		for lvl := 0; lvl < cfg.Levels-1; lvl++ {
			from := assignment[ti][lvl]
			to := assignment[ti][lvl+1]
			found := false
			for ei := range lg.edges[lvl][from] {
				e := &lg.edges[lvl][from][ei]
				if e.to == to {
					e.weight++
					e.featSum.ShipType += t.Features.ShipType
					e.featSum.Length += t.Features.Length
					e.featSum.Draught += t.Features.Draught
					found = true
					break
				}
			}
			if !found {
				lg.edges[lvl][from] = append(lg.edges[lvl][from], edge{
					to: to, weight: 1, featSum: t.Features,
				})
			}
		}
	}
	lg.pol = computePOL(group)
	return lg
}

func computePOL(group []Trip) PatternsOfLife {
	pol := PatternsOfLife{Trips: len(group), TypeHistogram: make(map[uint8]int)}
	mmsis := map[uint32]bool{}
	var durSum, durSq float64
	var lenSum, speedSum float64
	for _, t := range group {
		d := t.Duration().Seconds()
		durSum += d
		durSq += d * d
		l := t.Length()
		lenSum += l
		if d > 0 {
			speedSum += l / d / geo.KnotsToMetersPerSecond
		}
		mmsis[t.MMSI] = true
		pol.TypeHistogram[t.Features.ShipType]++
	}
	n := float64(len(group))
	if n > 0 {
		mean := durSum / n
		pol.MeanDuration = time.Duration(mean * float64(time.Second))
		variance := durSq/n - mean*mean
		if variance > 0 {
			pol.StdDuration = time.Duration(math.Sqrt(variance) * float64(time.Second))
		}
		pol.MeanLengthM = lenSum / n
		pol.MeanSpeedKn = speedSum / n
	}
	pol.DistinctMMSIs = len(mmsis)
	return pol
}

// featureDistance scores how well a vessel matches an edge's clientele.
func featureDistance(a, b Features) float64 {
	dType := 0.0
	if a.ShipType/10 != b.ShipType/10 { // same coarse category?
		dType = 1.0
	}
	dLen := math.Abs(a.Length-b.Length) / 150
	dDr := math.Abs(a.Draught-b.Draught) / 8
	return dType + dLen + dDr
}

// ErrUnknownPair is wrapped by ForecastRoute for pairs without a lane
// and without port coordinates to fall back on.
var ErrUnknownPair = fmt.Errorf("lvrf: unknown origin/destination pair")

// ForecastRoute predicts the path from origin to destination for a
// vessel with the given features. For pairs with a trained lane it
// walks the transition graph, resolving junctions by combining edge
// weight with feature affinity; for unseen pairs it falls back to the
// great-circle track when both ports are known (EnvClus*'s
// generalisation is approximated by this fallback; see DESIGN.md).
func (m *Model) ForecastRoute(origin, dest string, f Features) ([]geo.Point, error) {
	lg, ok := m.lanes[odKey{origin, dest}]
	if !ok {
		po, okO := m.ports[origin]
		pd, okD := m.ports[dest]
		if !okO || !okD {
			return nil, fmt.Errorf("%w: %s -> %s", ErrUnknownPair, origin, dest)
		}
		out := make([]geo.Point, m.cfg.Levels)
		for i := range out {
			out[i] = geo.Interpolate(po, pd, float64(i)/float64(m.cfg.Levels-1))
		}
		return out, nil
	}
	// Start from the most used level-0 node.
	cur := 0
	for ni, n := range lg.levels[0] {
		if n.count > lg.levels[0][cur].count {
			cur = ni
		}
	}
	path := make([]geo.Point, 0, m.cfg.Levels)
	path = append(path, lg.levels[0][cur].centroid)
	for lvl := 0; lvl < len(lg.edges); lvl++ {
		es := lg.edges[lvl][cur]
		if len(es) == 0 {
			break
		}
		best, bestScore := 0, math.Inf(-1)
		for ei, e := range es {
			// Junction classifier: popularity prior + feature affinity.
			score := float64(e.weight)/float64(lg.trips) - featureDistance(f, e.meanFeatures())
			if score > bestScore {
				best, bestScore = ei, score
			}
		}
		cur = es[best].to
		path = append(path, lg.levels[lvl+1][cur].centroid)
	}
	return path, nil
}

// PatternsOfLife returns the aggregated traffic statistics of the pair.
func (m *Model) PatternsOfLife(origin, dest string) (PatternsOfLife, error) {
	lg, ok := m.lanes[odKey{origin, dest}]
	if !ok {
		return PatternsOfLife{}, fmt.Errorf("%w: %s -> %s", ErrUnknownPair, origin, dest)
	}
	return lg.pol, nil
}
