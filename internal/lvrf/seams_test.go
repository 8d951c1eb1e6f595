package lvrf

import (
	"fmt"
	"math"

	"seatwin/internal/geo"
)

// Introspection and scoring the lane tests use; the serving path never
// asks for either.

// Junctions returns, per level, how many alternative branches the lane
// has.
func (m *Model) Junctions(origin, dest string) ([]int, error) {
	lg, ok := m.lanes[odKey{origin, dest}]
	if !ok {
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnknownPair, origin, dest)
	}
	out := make([]int, len(lg.edges))
	for lvl := range lg.edges {
		maxBranches := 0
		for _, es := range lg.edges[lvl] {
			if len(es) > maxBranches {
				maxBranches = len(es)
			}
		}
		out[lvl] = maxBranches
	}
	return out, nil
}

// MeanCrossTrack scores a forecast path against an actual trip: the
// mean distance from each actual point to the nearest forecast segment
// endpoint (a pragmatic path-distance proxy).
func MeanCrossTrack(forecast []geo.Point, actual []geo.Point) float64 {
	if len(forecast) == 0 || len(actual) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, p := range actual {
		best := math.Inf(1)
		for _, q := range forecast {
			if d := geo.FastDistance(p, q); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(actual))
}
