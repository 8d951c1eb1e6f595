package events

import (
	"slices"

	"seatwin/internal/hexgrid"
)

// CellTracer builds forecasts' delivery cell sets (§5.2: "the
// respective cell n and each n+1 nearest cell"). The set holds every
// hexgrid cell the predicted track crosses, traced segment by segment
// so a fast vessel cannot skip a cell between two 5-minute positions.
// A crossed cell the set does not hold yet also brings in its 1-ring;
// one already held, as the neighbour of an earlier crossed cell, does
// not. Its scratch slices are reused across calls, so a tracer is not
// safe for concurrent use; each vessel actor owns one.
type CellTracer struct {
	trace []hexgrid.Cell
	disk  []hexgrid.Cell
	set   []uint64
}

// Cells returns the forecast's delivery cells at resolution res,
// sorted ascending and duplicate-free, in a freshly allocated slice the
// caller may attach to the forecast and share. It returns nil for a
// forecast with fewer than two points.
func (t *CellTracer) Cells(f Forecast, res int) []uint64 {
	t.set = t.set[:0]
	for i := 1; i < len(f.Points); i++ {
		t.trace = hexgrid.AppendTraceLine(t.trace[:0], f.Points[i-1].Pos, f.Points[i].Pos, res)
		for _, c := range t.trace {
			// At most seven cells per crossed cell: membership is a
			// linear scan.
			if slices.Contains(t.set, uint64(c)) {
				continue
			}
			t.disk = c.AppendGridDisk(t.disk[:0], 1)
			for _, n := range t.disk {
				if !slices.Contains(t.set, uint64(n)) {
					t.set = append(t.set, uint64(n))
				}
			}
		}
	}
	if len(t.set) == 0 {
		return nil
	}
	slices.Sort(t.set)
	return slices.Clone(t.set)
}

// ownerCell returns the smallest cell present in both sorted sets, or
// 0 (never a valid cell) when they are disjoint. Each forecast is
// delivered to every cell of its set, so every cell of the intersection
// receives both forecasts of the pair; the smallest is a pure function
// of the two messages, so every cell, on any worker, agrees on it
// without coordination.
func ownerCell(a, b []uint64) uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i]
		}
	}
	return 0
}
