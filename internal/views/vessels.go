package views

import (
	"io"
	"sort"
	"strconv"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// VesselItem is one vessel in the world snapshot: the pre-encoded JSON
// document plus the fields filters need, so limit/bbox queries never
// decode anything.
type VesselItem struct {
	MMSI     ais.MMSI
	Lat, Lon float64
	TS       int64 // unix nanos of the last report
	Enc      []byte
}

// VesselSnapshot is one immutable world vessel list, newest first.
type VesselSnapshot struct {
	Epoch   uint64
	BuiltAt time.Time
	Items   []VesselItem

	// body is the pre-concatenated JSON array of the first bodyN items
	// — the single-Write fast path for the default query.
	body  []byte
	bodyN int
	bytes int64 // total encoded bytes across items (instrumentation)
}

func emptyVesselSnapshot() *VesselSnapshot {
	return &VesselSnapshot{body: []byte("[]\n")}
}

// Len returns the vessel count.
func (s *VesselSnapshot) Len() int { return len(s.Items) }

var (
	jsonOpen  = []byte("[")
	jsonComma = []byte(",")
	jsonClose = []byte("]\n")
)

// WriteJSON streams up to limit vessels (newest first), optionally
// filtered by a bounding box, as one JSON array. It allocates nothing:
// the fast path (no box, limit covers the pre-built body) is a single
// Write; the general path writes pre-encoded per-vessel documents. It
// returns the number of vessels written.
func (s *VesselSnapshot) WriteJSON(w io.Writer, limit int, box *geo.BBox) (int, error) {
	if limit <= 0 || limit > len(s.Items) {
		limit = len(s.Items)
	}
	if box == nil && limit == s.bodyN {
		_, err := w.Write(s.body)
		return s.bodyN, err
	}
	if _, err := w.Write(jsonOpen); err != nil {
		return 0, err
	}
	n := 0
	for i := range s.Items {
		if n == limit {
			break
		}
		it := &s.Items[i]
		if box != nil && !box.Contains(geo.Point{Lat: it.Lat, Lon: it.Lon}) {
			continue
		}
		if n > 0 {
			if _, err := w.Write(jsonComma); err != nil {
				return n, err
			}
		}
		if _, err := w.Write(it.Enc); err != nil {
			return n, err
		}
		n++
	}
	_, err := w.Write(jsonClose)
	return n, err
}

// regionAggregate accumulates one cell's summary during a refresh pass.
type regionAggregate struct {
	count    int
	underway int
	sumSOG   float64
	maxSOG   float64
}

// RegionSnapshot is one immutable per-cell summary view: for every
// hex cell with at least one vessel, its population, underway count and
// SOG aggregates — the cell-grid pre-materialization.
type RegionSnapshot struct {
	Epoch   uint64
	BuiltAt time.Time
	Cells   int
	body    []byte
}

func emptyRegionSnapshot() *RegionSnapshot {
	return &RegionSnapshot{body: []byte("[]\n")}
}

// WriteJSON writes the whole pre-encoded summary array in one Write.
func (s *RegionSnapshot) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.body)
	return err
}

// buildVesselAndRegionSnapshots walks the staging shards once, building
// both the world list and the per-cell aggregates. Dirty entries are
// re-encoded into fresh immutable buffers; clean ones keep their bytes
// (shared with older snapshots).
func (v *Views) buildVesselAndRegionSnapshots(epoch uint64, builtAt time.Time) (*VesselSnapshot, *RegionSnapshot) {
	items := v.itemScratch[:0]
	for c := range v.regionAgg {
		delete(v.regionAgg, c)
	}
	var newest int64
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for mmsi, e := range sh.entries {
			if e.enc == nil {
				e.enc = appendVesselJSON(nil, &e.state)
			}
			ts := e.state.TS.UnixNano()
			if ts > newest {
				newest = ts
			}
			items = append(items, VesselItem{
				MMSI: mmsi,
				Lat:  e.state.Lat, Lon: e.state.Lon,
				TS: ts, Enc: e.enc,
			})
			agg := v.regionAgg[e.cell]
			if agg == nil {
				agg = &regionAggregate{}
				v.regionAgg[e.cell] = agg
			}
			agg.count++
			if e.state.SOG > 0.5 {
				agg.underway++
			}
			agg.sumSOG += e.state.SOG
			if e.state.SOG > agg.maxSOG {
				agg.maxSOG = e.state.SOG
			}
		}
		sh.mu.Unlock()
	}
	v.itemScratch = items

	// Expiry is relative to the newest report (sim-time friendly); a
	// dropped vessel leaves staging too, so it cannot resurrect without
	// a fresh report.
	if exp := v.cfg.ExpireAfter; exp > 0 && newest > 0 {
		cutoff := newest - int64(exp)
		live := items[:0]
		for _, it := range items {
			if it.TS >= cutoff {
				live = append(live, it)
			} else {
				sh := v.shardFor(it.MMSI)
				sh.mu.Lock()
				if e, ok := sh.entries[it.MMSI]; ok && e.state.TS.UnixNano() <= it.TS {
					delete(sh.entries, it.MMSI)
				}
				sh.mu.Unlock()
			}
		}
		items = live
	}

	sort.Slice(items, func(i, j int) bool {
		if items[i].TS != items[j].TS {
			return items[i].TS > items[j].TS
		}
		return items[i].MMSI < items[j].MMSI
	})

	snap := &VesselSnapshot{Epoch: epoch, BuiltAt: builtAt}
	snap.Items = make([]VesselItem, len(items))
	copy(snap.Items, items)
	for i := range snap.Items {
		snap.bytes += int64(len(snap.Items[i].Enc))
	}
	snap.bodyN = len(snap.Items)
	if snap.bodyN > v.cfg.DefaultLimit {
		snap.bodyN = v.cfg.DefaultLimit
	}
	body := make([]byte, 0, 2+snap.bytes/int64(max(len(snap.Items), 1))*int64(snap.bodyN)+int64(snap.bodyN))
	body = append(body, '[')
	for i := 0; i < snap.bodyN; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, snap.Items[i].Enc...)
	}
	body = append(body, ']', '\n')
	snap.body = body

	return snap, v.buildRegionSnapshot(epoch, builtAt)
}

// buildRegionSnapshot encodes the aggregate map, busiest cells first.
func (v *Views) buildRegionSnapshot(epoch uint64, builtAt time.Time) *RegionSnapshot {
	type cellAgg struct {
		cell hexgrid.Cell
		agg  *regionAggregate
	}
	cells := make([]cellAgg, 0, len(v.regionAgg))
	for c, a := range v.regionAgg {
		cells = append(cells, cellAgg{c, a})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].agg.count != cells[j].agg.count {
			return cells[i].agg.count > cells[j].agg.count
		}
		return cells[i].cell < cells[j].cell
	})
	body := make([]byte, 0, 64*len(cells)+3)
	body = append(body, '[')
	for i, ca := range cells {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"cell":"`...)
		body = ca.cell.Append(body)
		body = append(body, `","count":`...)
		body = strconv.AppendInt(body, int64(ca.agg.count), 10)
		body = append(body, `,"underway":`...)
		body = strconv.AppendInt(body, int64(ca.agg.underway), 10)
		body = append(body, `,"mean_sog":`...)
		body = strconv.AppendFloat(body, ca.agg.sumSOG/float64(ca.agg.count), 'f', 1, 64)
		body = append(body, `,"max_sog":`...)
		body = strconv.AppendFloat(body, ca.agg.maxSOG, 'f', 1, 64)
		body = append(body, '}')
	}
	body = append(body, ']', '\n')
	return &RegionSnapshot{Epoch: epoch, BuiltAt: builtAt, Cells: len(cells), body: body}
}
