package events

import (
	"slices"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// ownerTestResolution is the collision cell resolution the pipeline
// runs (the pipeline's collisionResolution, grid "K").
const ownerTestResolution = 7

func TestCellTracerSortedDedupedTraceAndRing(t *testing.T) {
	fleet := newCollisionFleet(1, 0, 1).withSVRFShape()
	f := fleet.forecast(0, t0)
	var tr CellTracer
	got := tr.Cells(f, ownerTestResolution)
	if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
		t.Fatalf("cell set not sorted and duplicate-free: %v", got)
	}
	// The delivery rule, spelled out with a map: every crossed cell, and
	// the 1-ring of each crossed cell not yet in the set.
	want := map[uint64]bool{}
	crossed := 0
	for i := 1; i < len(f.Points); i++ {
		for _, c := range hexgrid.AppendTraceLine(nil, f.Points[i-1].Pos, f.Points[i].Pos, ownerTestResolution) {
			crossed++
			if want[uint64(c)] {
				continue
			}
			for _, n := range c.AppendGridDisk(nil, 1) {
				want[uint64(n)] = true
			}
		}
	}
	if crossed < 3 {
		t.Fatalf("track crosses %d cells; the test needs several", crossed)
	}
	if len(got) != len(want) {
		t.Fatalf("tracer returned %d cells, the delivery rule gives %d", len(got), len(want))
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("cell %v is not in the delivery set", hexgrid.Cell(c))
		}
	}
	// The returned set is the caller's to share: a second call must not
	// overwrite it.
	snapshot := slices.Clone(got)
	tr.Cells(fleet.forecast(0, t0.Add(time.Hour)), ownerTestResolution)
	if !slices.Equal(got, snapshot) {
		t.Fatal("a later Cells call overwrote an earlier result")
	}
	if c := tr.Cells(Forecast{Points: f.Points[:1]}, ownerTestResolution); c != nil {
		t.Fatalf("one-point forecast has cells %v, want none", c)
	}
}

func TestOwnerCellIsSmallestSharedCell(t *testing.T) {
	for _, tc := range []struct {
		a, b []uint64
		want uint64
	}{
		{[]uint64{1, 3, 5, 7}, []uint64{2, 5, 7}, 5},
		{[]uint64{2, 4}, []uint64{1, 3, 5}, 0},
		{[]uint64{9}, []uint64{9}, 9},
		{nil, []uint64{1}, 0},
	} {
		if got := ownerCell(tc.a, tc.b); got != tc.want {
			t.Errorf("ownerCell(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := ownerCell(tc.b, tc.a); got != tc.want {
			t.Errorf("ownerCell(%v, %v) = %d, want %d (not symmetric)", tc.b, tc.a, got, tc.want)
		}
	}
}

// forecastID names one forecast of one vessel: the fleets issue one
// forecast per vessel per step, starting at the step's clock.
type forecastID struct {
	mmsi  ais.MMSI
	start int64
}

// sweepID names one pair check: the incoming forecast against one held
// forecast.
type sweepID struct{ in, held forecastID }

// ownerRun is the outcome of replaying a fleet through per-cell
// detectors with and without ownership.
type ownerRun struct {
	plainChecked, ownedChecked int64
	deferred                   int64
	multiCellSweeps            int // plain sweeps repeated in another cell
	ownedEvents                int
	latestEvents               int // plain ones between latest forecasts, per cell
}

// runOwnerParity replays the fleet the way the pipeline delivers
// forecasts: each forecast carries its CellTracer set and goes, in set
// order, to every cell's detector synchronously. Two detectors run per
// cell on identical input, one plain (no cell, today's per-cell sweep)
// and one told its cell. Before each delivery the test predicts, from
// the forecasts the cell holds, which pairs each detector must sweep:
// the oracle prefilter's survivors (the circle prune never rejects
// one), and of those, under ownership, only the pairs whose two sets
// meet first in this cell. The detectors' Checked counts must match the
// prediction delivery by delivery, and the events must satisfy:
//
//   - every sweep under ownership happens in exactly one cell;
//   - every event under ownership is bitwise one that the plain detector
//     of the same cell emits for the same delivery;
//   - every plain event between the incoming forecast and the other
//     vessel's latest forecast is emitted under ownership too (by
//     whichever cell owns the pair).
func runOwnerParity(t *testing.T, fleet *collisionFleet, steps int) ownerRun {
	t.Helper()
	cfg := DefaultCollisionConfig()
	const expire = 10 * time.Minute
	plain := map[uint64]*GridDetector{}
	owned := map[uint64]*GridDetector{}
	latest := map[ais.MMSI]int64{}
	ownedSweeps := map[sweepID]uint64{}
	plainSweeps := map[sweepID]int{}
	var tr CellTracer
	var run ownerRun
	for step := 0; step < steps; step++ {
		now := t0.Add(time.Duration(step) * 30 * time.Second)
		for i := range fleet.mmsi {
			fleet.advance(i, 30)
			f := fleet.forecast(i, now)
			f.Cells = tr.Cells(f, ownerTestResolution)
			in := forecastID{f.MMSI, f.Points[0].At.UnixNano()}
			latest[f.MMSI] = in.start

			var ownedEvs, latestEvs []Event
			for _, cell := range f.Cells {
				p, o := plain[cell], owned[cell]
				if p == nil {
					p = NewGridDetector(cfg, expire)
					o = NewGridDetector(cfg, expire)
					o.SetCell(cell)
					plain[cell], owned[cell] = p, o
				}
				// Predict the sweeps from what the cell holds now.
				held := map[ais.MMSI]forecastID{}
				wantPlain, wantOwned := 0, 0
				for _, si := range p.index {
					s := &p.slots[si]
					if s.mmsi == f.MMSI || now.UnixNano()-s.stampNs > p.expireNs || len(s.raw) == 0 {
						continue
					}
					h := forecastID{s.mmsi, s.raw[0].At.UnixNano()}
					held[s.mmsi] = h
					if !rawPrefilter(f.Points, s.raw, cfg) {
						continue
					}
					id := sweepID{in, h}
					wantPlain++
					if plainSweeps[id]++; plainSweeps[id] == 2 {
						run.multiCellSweeps++
					}
					if ownerCell(f.Cells, s.cells) == cell {
						wantOwned++
						if prev, dup := ownedSweeps[id]; dup {
							t.Fatalf("pair %v swept under ownership in cell %v and again in %v",
								id, hexgrid.Cell(prev), hexgrid.Cell(cell))
						}
						ownedSweeps[id] = cell
					}
				}

				p0, o0 := p.Stats(), o.Stats()
				pe := slices.Clone(p.Update(f, now))
				oe := slices.Clone(o.Update(f, now))
				p1, o1 := p.Stats(), o.Stats()
				if got := p1.Checked - p0.Checked; got != int64(wantPlain) {
					t.Fatalf("cell %v: plain detector swept %d pairs, want %d", hexgrid.Cell(cell), got, wantPlain)
				}
				if got := o1.Checked - o0.Checked; got != int64(wantOwned) {
					t.Fatalf("cell %v: owner detector swept %d pairs, want %d", hexgrid.Cell(cell), got, wantOwned)
				}
				run.plainChecked += p1.Checked - p0.Checked
				run.ownedChecked += o1.Checked - o0.Checked
				run.deferred += o1.Deferred - o0.Deferred
				if p1.Deferred != 0 {
					t.Fatalf("cell %v: a detector without a cell deferred %d pairs", hexgrid.Cell(cell), p1.Deferred)
				}
				for _, e := range oe {
					if !slices.Contains(pe, e) {
						t.Fatalf("cell %v: owner emitted %+v, which the plain sweep did not\nplain: %+v",
							hexgrid.Cell(cell), e, pe)
					}
				}
				ownedEvs = append(ownedEvs, oe...)
				for _, e := range pe {
					if held[e.B].start == latest[e.B] {
						latestEvs = append(latestEvs, e)
					}
				}
			}
			for _, e := range latestEvs {
				if !slices.Contains(ownedEvs, e) {
					t.Fatalf("no cell emitted %+v under ownership, though both forecasts are the latest", e)
				}
			}
			run.ownedEvents += len(ownedEvs)
			run.latestEvents += len(latestEvs)
		}
	}
	return run
}

func TestOwnerRuleParity(t *testing.T) {
	cases := []struct {
		name  string
		fleet *collisionFleet
		// dense fleets must show the rule at work: events, pairs shared
		// by several cells and deferred.
		dense bool
	}{
		{"dense", newCollisionFleet(16, 3000, 42).withSVRFShape(), true},
		{"sparse", newCollisionFleet(20, 400000, 9).withSVRFShape(), false},
		{"antimeridian", newCollisionFleetAt(geo.Point{Lat: -16.5, Lon: -180}, 12, 3000, 3).withSVRFShape(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := runOwnerParity(t, c.fleet, 4)
			t.Logf("%+v", run)
			if !c.dense {
				return
			}
			if run.latestEvents == 0 || run.multiCellSweeps == 0 || run.deferred == 0 {
				t.Fatalf("vacuous run: %+v", run)
			}
			if run.ownedChecked >= run.plainChecked {
				t.Fatalf("ownership swept %d pairs, the plain per-cell sweep %d", run.ownedChecked, run.plainChecked)
			}
		})
	}
}

// A detector without a cell, or a slot without a set, sweeps every pair
// as before: ownership needs both sets and the detector's cell.
func TestOwnerRuleNeedsBothSetsAndCell(t *testing.T) {
	start := geo.Point{Lat: 35.9, Lon: 14.5}
	mk := func(mmsi ais.MMSI, cells []uint64) Forecast {
		f := lineForecast(mmsi, start, 90, 12, t0)
		f.Cells = cells
		return f
	}
	// The detector serves cell 5, which the sets below share with the
	// smaller cell 3: cell 3 owns the pair.
	for _, tc := range []struct {
		name     string
		cell     uint64
		a, b     []uint64
		deferred bool
	}{
		{"owned elsewhere", 5, []uint64{3, 5}, []uint64{3, 5}, true},
		{"owned here", 3, []uint64{3, 5}, []uint64{3, 5}, false},
		{"no cell", 0, []uint64{3, 5}, []uint64{3, 5}, false},
		{"incoming set unknown", 5, nil, []uint64{3, 5}, false},
		{"held set unknown", 5, []uint64{3, 5}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewGridDetector(DefaultCollisionConfig(), 0)
			d.SetCell(tc.cell)
			d.Update(mk(310000001, tc.b), t0)
			evs := d.Update(mk(310000002, tc.a), t0)
			st := d.Stats()
			if tc.deferred != (st.Deferred == 1) || tc.deferred != (len(evs) == 0) || tc.deferred == (st.Checked == 1) {
				t.Fatalf("deferred=%v: stats %+v, %d events", tc.deferred, st, len(evs))
			}
		})
	}
}
