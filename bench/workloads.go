package bench

import (
	"fmt"

	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
)

// Spec holds one workload's constants. Nothing here adapts at run time:
// the seed picks the world, the spec fixes its size and the load.
type Spec struct {
	Name string
	Why  string
	// World selects the fleetsim generator: "global" and "europe" are
	// NewWorld over the port catalog with the default lossy channel,
	// "strait" is DenseStraitWorld.
	World   string
	Vessels int
	// WarmReports are replayed unpaced and drained inside set-up, so the
	// window opens on vessel actors that already forecast.
	WarmReports int
	// Rate is the open-loop ingest rate in position reports per second;
	// 0 means flood: unpaced, closed only by InflightCap.
	Rate int
	// InflightCap bounds produced-minus-visible reports under flood. The
	// embedded broker never refuses a produce, so without a cap the
	// backlog (and the drain after the window) grows with run length.
	InflightCap int
	// FloodBudget is how many reports per window second set-up
	// pre-generates for a flood window (it must exceed saturation).
	FloodBudget int
	// SampleEvery makes the probe follow one vessel in N.
	SampleEvery int
	// ReadRate is the reader's open-loop GET rate; Mix its endpoints.
	ReadRate int
	Mix      []MixEntry
	// RegionSubs is how many undrained conflating region/<cell>
	// subscriptions stay attached (publish-side fan-out cost).
	RegionSubs int
	// Ports enables the congestion monitor; Route trains and publishes
	// an L-VRF model in set-up.
	Ports bool
	Route bool
	// Smoke marks a spec shrunk by scaled: sample-count floors and the
	// generator-lateness gate size a full run and do not apply.
	Smoke bool
}

// MixEntry is one endpoint of the reader's traffic mix.
type MixEntry struct {
	Kind   string // layer-metric key: api.<Kind>_p50_us
	Weight int
}

// serveMix is the full read mix of serve_mix.
var serveMix = []MixEntry{
	{"vessels", 4}, {"vessels_limit", 2}, {"vessels_bbox", 2}, {"events", 2},
	{"regions", 1}, {"congestion", 1}, {"vessel_one", 2}, {"route", 1}, {"metrics", 1},
}

// Specs are the four workloads, in BENCHMARK.json order. Sizes were
// chosen against the saturation rates recorded in README.md.
var Specs = []Spec{
	{
		Name:  "global_paced",
		Why:   "sparse global fleet, open loop at a quarter of saturation: decode, broker, actors, S-VRF and writer carry the cost, no cell is shared; reports_per_s is the set rate here, a constant",
		World: "global", Vessels: 1000, WarmReports: 24000,
		Rate: 1500, SampleEvery: 2,
	},
	{
		Name:  "global_flood",
		Why:   "same fleet unpaced behind a fixed in-flight cap: saturation throughput, heap ceiling, where the backlog forms; visible_p50_ms is cap / throughput here, not service time",
		World: "global", Vessels: 1000, WarmReports: 24000,
		Rate: 0, InflightCap: 4096, FloodBudget: 10000, SampleEvery: 2,
	},
	{
		Name:  "strait_paced",
		Why:   "every route funnels through a few cells: proximity and collision detectors do most of the work, the mirror of global_paced; reports_per_s is the set rate here, a constant",
		World: "strait", Vessels: 40, WarmReports: 1800,
		Rate: 100, SampleEvery: 1,
	},
	{
		Name:  "serve_mix",
		Why:   "reads beside writes: full API mix, region subscribers, ports and L-VRF, so a read gain paid for on the write path shows; reports_per_s is the set rate here, a constant",
		World: "europe", Vessels: 1000, WarmReports: 24000,
		Rate: 600, SampleEvery: 1,
		ReadRate: 200, Mix: serveMix, RegionSubs: 16, Ports: true, Route: true,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a spec for the smoke test: fewer vessels and warm-up
// reports at the same rates, so every code path still runs.
func (s Spec) scaled(f float64) Spec {
	if f >= 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if v := int(float64(n) * f); v > floor {
			return v
		}
		return floor
	}
	s.Vessels = shrink(s.Vessels, 12)
	s.WarmReports = shrink(s.WarmReports, 12*s.Vessels)
	if s.Rate > 0 {
		s.Rate = shrink(s.Rate, 200)
	}
	s.SampleEvery = 1
	s.Smoke = true
	return s
}

// region is the world's bounding box (zero for global and strait).
func (s Spec) region() geo.BBox {
	if s.World == "europe" {
		return geo.EuropeanCoverage
	}
	return geo.BBox{}
}

// newWorld builds the workload's fleet.
func (s Spec) newWorld(seed int64) *fleetsim.World {
	if s.World == "strait" {
		return fleetsim.DenseStraitWorld(s.Vessels, seed)
	}
	return fleetsim.NewWorld(fleetsim.Config{
		Vessels: s.Vessels, Seed: seed, Region: s.region(), KeepSailing: true,
	})
}
