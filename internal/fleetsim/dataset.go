package fleetsim

import (
	"sort"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// VesselTrack is one vessel's received AIS reports in time order.
type VesselTrack struct {
	Vessel  Vessel
	Reports []ais.PositionReport
}

// RecordedDataset is a region-scoped AIS capture, the stand-in for the
// archived 24-hour MarineTraffic stream the paper trains S-VRF on
// (§6.1).
type RecordedDataset struct {
	Region   geo.BBox
	Start    time.Time
	Duration time.Duration
	Tracks   []VesselTrack
}

// Record runs a regional world for the given duration and collects the
// received reports per vessel.
func Record(region geo.BBox, vessels int, duration time.Duration, seed int64) *RecordedDataset {
	w := NewWorld(Config{
		Vessels:     vessels,
		Seed:        seed,
		Region:      region,
		KeepSailing: true,
	})
	start := w.clock
	byMMSI := make(map[ais.MMSI]*VesselTrack)
	w.Run(duration, func(r Report) {
		t, ok := byMMSI[r.Pos.MMSI]
		if !ok {
			t = &VesselTrack{Vessel: *r.Vessel}
			byMMSI[r.Pos.MMSI] = t
		}
		t.Reports = append(t.Reports, r.Pos)
	})
	ds := &RecordedDataset{Region: region, Start: start, Duration: duration}
	for _, t := range byMMSI {
		if len(t.Reports) >= 2 {
			ds.Tracks = append(ds.Tracks, *t)
		}
	}
	// Deterministic track order: map iteration order must not leak into
	// dataset splits (experiments claim bit-for-bit reproducibility).
	sort.Slice(ds.Tracks, func(i, j int) bool {
		return ds.Tracks[i].Vessel.MMSI < ds.Tracks[j].Vessel.MMSI
	})
	return ds
}

// Messages returns the total number of recorded reports.
func (d *RecordedDataset) Messages() int {
	n := 0
	for _, t := range d.Tracks {
		n += len(t.Reports)
	}
	return n
}
