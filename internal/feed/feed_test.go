package feed

import (
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

var tRef = time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)

func testState(mmsi ais.MMSI, p geo.Point) State {
	return State{
		MMSI: mmsi, Lat: p.Lat, Lon: p.Lon, SOG: 12, COG: 90,
		Status: "under way using engine", TS: tRef,
	}
}

func testEvent(kind events.Kind, a, b ais.MMSI, p geo.Point) events.Event {
	return events.Event{Kind: kind, A: a, B: b, At: tRef, Pos: p, Meters: 250}
}

// recvOne waits for one frame with a timeout (tests must never hang on
// a missing frame).
func recvOne(t *testing.T, sub *Subscription) Delivery {
	t.Helper()
	type res struct {
		d  Delivery
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		d, ok := sub.Recv()
		ch <- res{d, ok}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatalf("subscription closed while waiting for a frame: %v", sub.Err())
		}
		return r.d
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
		return Delivery{}
	}
}

func TestVesselTopicRouting(t *testing.T) {
	h := NewHub(Options{})
	sub, err := h.Subscribe([]string{TopicVesselPrefix + ais.MMSI(237000001).String()}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	h.PublishState(testState(237000001, geo.Point{Lat: 37.5, Lon: 24.5}))
	h.PublishState(testState(999000009, geo.Point{Lat: 37.5, Lon: 24.5})) // other vessel

	d := recvOne(t, sub)
	if d.Type != "state" {
		t.Fatalf("type %q", d.Type)
	}
	var doc map[string]any
	if err := json.Unmarshal(d.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["mmsi"] != "237000001" || doc["type"] != "state" {
		t.Fatalf("frame: %v", doc)
	}
	// The other vessel's frame must not arrive.
	if got := h.Snapshot().Fanned; got != 1 {
		t.Fatalf("fanned %d frames, want 1", got)
	}
}

func TestRegionAndEventRouting(t *testing.T) {
	h := NewHub(Options{RegionResolution: 7})
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	far := geo.Point{Lat: 52.0, Lon: 4.0}

	regionSub, err := h.SubscribeRequest(Request{Regions: []string{"37.5,24.5"}})
	if err != nil {
		t.Fatal(err)
	}
	defer regionSub.Close()
	evSub, err := h.SubscribeRequest(Request{Events: []string{"collision", "gap"}})
	if err != nil {
		t.Fatal(err)
	}
	defer evSub.Close()

	h.PublishState(testState(111000001, far))                          // outside the region
	h.PublishState(testState(111000002, pos))                          // inside
	h.PublishEvent(testEvent(events.KindProximity, 1, 2, pos))         // class not subscribed
	h.PublishEvent(testEvent(events.KindCollisionForecast, 3, 4, pos)) // subscribed

	d := recvOne(t, regionSub)
	var st struct {
		MMSI string `json:"mmsi"`
		Cell string `json:"cell"`
	}
	if err := json.Unmarshal(d.Data, &st); err != nil {
		t.Fatal(err)
	}
	if st.MMSI != "111000002" {
		t.Fatalf("region subscriber saw %q", st.MMSI)
	}
	if want := hexgrid.LatLonToCell(pos, 7).String(); st.Cell != want {
		t.Fatalf("cell %q, want %q", st.Cell, want)
	}

	e := recvOne(t, evSub)
	var ev struct {
		Type  string `json:"type"`
		Class string `json:"class"`
		Kind  string `json:"kind"`
		A     string `json:"a"`
		B     string `json:"b"`
	}
	if err := json.Unmarshal(e.Data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "event" || ev.Class != "collision" || ev.Kind != "collision-forecast" {
		t.Fatalf("event frame: %+v", ev)
	}
	if ev.A != "000000003" || ev.B != "000000004" {
		t.Fatalf("pair: %+v", ev)
	}
}

// TestMultiTopicDedup: a subscriber on both the vessel and its region
// receives a matching frame exactly once.
func TestMultiTopicDedup(t *testing.T) {
	h := NewHub(Options{RegionResolution: 7})
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	sub, err := h.SubscribeRequest(Request{
		Vessels: []string{"237000001"},
		Regions: []string{"37.5,24.5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(sub.Topics()) != 2 {
		t.Fatalf("topics: %v", sub.Topics())
	}
	h.PublishState(testState(237000001, pos))
	recvOne(t, sub)
	if got := h.Snapshot().Fanned; got != 1 {
		t.Fatalf("fanned %d, want 1 (deduped)", got)
	}
}

func TestDropOldestPolicy(t *testing.T) {
	h := NewHub(Options{})
	sub, err := h.Subscribe([]string{TopicProximity}, SubOptions{Buffer: 4, Policy: PolicyDropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 10; i++ {
		h.PublishEvent(testEvent(events.KindProximity, ais.MMSI(100+i), ais.MMSI(200+i), geo.Point{Lat: 37, Lon: 24}))
	}
	// The 4 newest survive; the first delivered is the 7th published.
	d := recvOne(t, sub)
	var ev struct {
		A string `json:"a"`
	}
	json.Unmarshal(d.Data, &ev)
	if ev.A != ais.MMSI(106).String() {
		t.Fatalf("first surviving frame from %q, want %q", ev.A, ais.MMSI(106).String())
	}
	if s := h.Snapshot(); s.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", s.Dropped)
	}
}

func TestConflatePolicyKeepsNewestPerVessel(t *testing.T) {
	h := NewHub(Options{})
	mmsiA, mmsiB := ais.MMSI(237000001), ais.MMSI(237000002)
	sub, err := h.Subscribe(
		[]string{TopicVesselPrefix + mmsiA.String(), TopicVesselPrefix + mmsiB.String()},
		SubOptions{Buffer: 8, Policy: PolicyConflate})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// 50 updates per vessel while the consumer sleeps: conflation keeps
	// one buffered frame per vessel, the newest.
	for i := 0; i < 50; i++ {
		h.PublishState(testState(mmsiA, geo.Point{Lat: 37.0 + float64(i)/1000, Lon: 24.5}))
		h.PublishState(testState(mmsiB, geo.Point{Lat: 38.0 + float64(i)/1000, Lon: 24.5}))
	}
	got := map[string]float64{}
	for i := 0; i < 2; i++ {
		d := recvOne(t, sub)
		var st struct {
			MMSI string  `json:"mmsi"`
			Lat  float64 `json:"lat"`
		}
		if err := json.Unmarshal(d.Data, &st); err != nil {
			t.Fatal(err)
		}
		got[st.MMSI] = st.Lat
	}
	if math.Abs(got[mmsiA.String()]-37.049) > 1e-9 || math.Abs(got[mmsiB.String()]-38.049) > 1e-9 {
		t.Fatalf("conflated frames: %v", got)
	}
	s := h.Snapshot()
	if s.Conflated != 98 {
		t.Fatalf("conflated %d, want 98", s.Conflated)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", s.Dropped)
	}
}

func TestDisconnectPolicyEvictsSlowConsumer(t *testing.T) {
	h := NewHub(Options{})
	sub, err := h.Subscribe([]string{TopicGap}, SubOptions{Buffer: 2, Policy: PolicyDisconnect})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.PublishEvent(testEvent(events.KindSwitchOff, ais.MMSI(100+i), 0, geo.Point{Lat: 37, Lon: 24}))
	}
	// The consumer never read: the third publish overflowed and closed it.
	if _, ok := sub.Recv(); ok {
		t.Fatal("Recv succeeded on a disconnected subscription")
	}
	if sub.Err() != ErrSlowConsumer {
		t.Fatalf("err = %v", sub.Err())
	}
	s := h.Snapshot()
	if s.Disconnected != 1 || s.Subscribers != 0 {
		t.Fatalf("stats after disconnect: %+v", s)
	}
	// Publishing after the eviction is harmless.
	h.PublishEvent(testEvent(events.KindSwitchOff, 999, 0, geo.Point{Lat: 37, Lon: 24}))
}

// TestSlowConsumerNeverBlocksPublish is the satellite requirement: a
// subscriber that stops reading must be absorbed per policy without
// blocking Hub.Publish. Run under -race in CI.
func TestSlowConsumerNeverBlocksPublish(t *testing.T) {
	h := NewHub(Options{})
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	topics := []string{TopicRegionPrefix + hexgrid.LatLonToCell(pos, h.regionRes).String()}

	// One subscriber per policy, none of which ever calls Recv.
	for _, pol := range []Policy{PolicyDropOldest, PolicyConflate, PolicyDisconnect} {
		if _, err := h.Subscribe(topics, SubOptions{Buffer: 16, Policy: pol}); err != nil {
			t.Fatal(err)
		}
	}
	// And one healthy reader, to prove delivery continues around the
	// stalled ones.
	healthy, err := h.Subscribe(topics, SubOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5000
	var healthyGot atomic.Int64
	healthyDone := make(chan struct{})
	go func() {
		defer close(healthyDone)
		for healthyGot.Load() < frames {
			if _, ok := healthy.Recv(); !ok {
				return
			}
			healthyGot.Add(1)
		}
	}()

	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			// 8 rotating vessels: few enough keys that the conflating
			// subscriber's 16-slot ring covers them all and conflation
			// (not eviction) absorbs the overload.
			h.PublishState(testState(ais.MMSI(237000000+i%8), pos))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher blocked by slow consumers")
	}
	elapsed := time.Since(start)

	// The publisher is done but the healthy reader may still be
	// draining its ring; closing now would discard what's buffered.
	select {
	case <-healthyDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("healthy subscriber got %d/%d frames", healthyGot.Load(), frames)
	}
	healthy.Close()
	s := h.Snapshot()
	if s.Disconnected != 1 {
		t.Fatalf("disconnects %d, want 1", s.Disconnected)
	}
	if s.Dropped == 0 || s.Conflated == 0 {
		t.Fatalf("overflow policies never engaged: %+v", s)
	}
	t.Logf("published %d frames in %v with 3 stalled subscribers (%+v)", frames, elapsed, s)
}

func TestResolveValidation(t *testing.T) {
	h := NewHub(Options{})
	cases := []Request{
		{},                                     // no topics
		{Vessels: []string{"not-a-number"}},    // bad MMSI
		{Vessels: []string{"0"}},               // invalid MMSI
		{Regions: []string{"hex:99:0:0"}},      // bad resolution
		{Regions: []string{"somewhere"}},       // neither cell nor lat,lon
		{Events: []string{"tsunami"}},          // unknown class
		{Events: []string{"gap"}, Policy: "x"}, // unknown policy
		{Events: []string{"gap"}, Buffer: -1},  // bad buffer
	}
	for i, req := range cases {
		if _, _, err := h.Resolve(req); err == nil {
			t.Errorf("case %d (%+v): expected error", i, req)
		}
	}

	// A coarser cell token is re-keyed onto the hub grid.
	pos := geo.Point{Lat: 37.5, Lon: 24.5}
	coarse := hexgrid.LatLonToCell(pos, 4).String()
	topics, opt, err := h.Resolve(Request{
		Regions: []string{coarse},
		Events:  []string{"all"},
		Policy:  "conflate",
		Buffer:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Policy != PolicyConflate || opt.Buffer != 64 {
		t.Fatalf("options: %+v", opt)
	}
	if len(topics) != 4 {
		t.Fatalf("topics: %v", topics)
	}
	for _, tp := range topics {
		if strings.HasPrefix(tp, TopicRegionPrefix) && !strings.HasPrefix(tp, TopicRegionPrefix+"hex:"+"7") {
			t.Fatalf("region topic %q not at hub resolution", tp)
		}
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(Options{})
	sub, err := h.SubscribeRequest(Request{Events: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, ok := sub.Recv(); ok {
		t.Fatal("Recv after hub close")
	}
	if sub.Err() != ErrHubClosed {
		t.Fatalf("err %v", sub.Err())
	}
	if _, err := h.SubscribeRequest(Request{Events: []string{"all"}}); err != ErrHubClosed {
		t.Fatalf("subscribe after close: %v", err)
	}
	h.PublishEvent(testEvent(events.KindProximity, 1, 2, geo.Point{Lat: 37, Lon: 24})) // no panic
}
