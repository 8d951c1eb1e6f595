package feed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/events"
	"seatwin/internal/geo"
	"seatwin/internal/hexgrid"
)

// BenchmarkFeedFanout5k drives ≥5,000 concurrent subscribers — a mix
// of per-vessel, region and event-class topics — through the hub.
// Every subscriber runs a live consuming goroutine; the publisher must
// never block on any of them (rings absorb overload per policy). The
// reported metrics are the hub's own instrumentation: deliveries per
// published frame and the per-publish fan-out p99.
func BenchmarkFeedFanout5k(b *testing.B) {
	benchmarkFanout(b, 5000)
}

// BenchmarkFeedFanout20k is the scale headroom check.
func BenchmarkFeedFanout20k(b *testing.B) {
	benchmarkFanout(b, 20000)
}

func benchmarkFanout(b *testing.B, nSubs int) {
	hub := NewHub(Options{RegionResolution: 7})
	defer hub.Close()

	const nVessels = 64
	base := geo.Point{Lat: 37.5, Lon: 24.5}
	// Vessel positions spread across a handful of region cells so the
	// region topics see real fan-out.
	positions := make([]geo.Point, nVessels)
	cells := make([]string, nVessels)
	for i := range positions {
		positions[i] = geo.Point{Lat: base.Lat + float64(i%8)*0.1, Lon: base.Lon + float64(i/8%8)*0.1}
		cells[i] = hexgrid.LatLonToCell(positions[i], 7).String()
	}

	var received atomic.Int64
	var wg sync.WaitGroup
	policies := []Policy{PolicyDropOldest, PolicyConflate, PolicyDropOldest}
	for i := 0; i < nSubs; i++ {
		var topics []string
		switch i % 5 {
		case 0, 1: // 40% vessel watchers
			topics = []string{TopicVesselPrefix + ais.MMSI(237000000+i%nVessels).String()}
		case 2, 3: // 40% region watchers
			topics = []string{TopicRegionPrefix + cells[i%nVessels]}
		default: // 20% event watchers
			topics = []string{TopicProximity, TopicCollision, TopicGap}
		}
		sub, err := hub.Subscribe(topics, SubOptions{Buffer: 64, Policy: policies[i%len(policies)]})
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := sub.Recv(); !ok {
					return
				}
				received.Add(1)
			}
		}()
	}
	if got := hub.Snapshot().Subscribers; got != int64(nSubs) {
		b.Fatalf("subscribers %d, want %d", got, nSubs)
	}

	ts := time.Date(2023, 9, 18, 9, 0, 0, 0, time.UTC)
	var maxPublish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % nVessels
		start := time.Now()
		hub.PublishState(State{
			MMSI: ais.MMSI(237000000 + v),
			Lat:  positions[v].Lat, Lon: positions[v].Lon,
			SOG: 12, COG: 90, TS: ts,
		})
		if i%50 == 0 {
			hub.PublishEvent(events.Event{
				Kind: events.KindProximity,
				A:    ais.MMSI(237000000 + v), B: ais.MMSI(237000000 + (v+1)%nVessels),
				At: ts, Pos: positions[v], Meters: 300,
			})
		}
		if d := time.Since(start); d > maxPublish {
			maxPublish = d
		}
	}
	b.StopTimer()

	s := hub.Snapshot()
	if s.Disconnected > 0 {
		b.Fatalf("benchmark subscribers use non-disconnecting policies, yet %d disconnected", s.Disconnected)
	}
	// "Zero blocking" sanity: a publish is bounded fan-out work, never a
	// wait on consumers. Even heavily loaded it stays far under the
	// seconds a stalled consumer would cost.
	if maxPublish > 2*time.Second {
		b.Fatalf("a publish took %v — publisher blocked on consumers", maxPublish)
	}
	if s.Published > 0 {
		b.ReportMetric(float64(s.Fanned+s.Conflated)/float64(s.Published), "deliveries/frame")
	}
	b.ReportMetric(s.FanoutP99.Seconds()*1e6, "fanout-p99-µs")
	b.ReportMetric(float64(maxPublish.Microseconds()), "max-publish-µs")

	hub.Close()
	wg.Wait()
	if testing.Verbose() {
		fmt.Printf("fanout: %d subs, %d published, %d delivered (%d drained), %d dropped, %d conflated\n",
			nSubs, s.Published, s.Fanned, received.Load(), s.Dropped, s.Conflated)
	}
}
