package pipeline

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/geo"
)

// newFeedPipeline builds a pipeline with a live-feed hub attached.
func newFeedPipeline(t *testing.T) (*Pipeline, *feed.Hub) {
	t.Helper()
	hub := feed.NewHub(feed.Options{RegionResolution: 7})
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Feed = hub
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Shutdown(2 * time.Second)
		hub.Close()
	})
	return p, hub
}

// feedCollisionPair drives the head-on scenario that yields both state
// frames and a collision-forecast event (same shape as
// TestCollisionForecastDetected).
func feedCollisionPair(p *Pipeline) {
	meet := geo.Point{Lat: 37.5, Lon: 24.5}
	aStart := geo.DeadReckon(meet, 12, 270, 900)
	bStart := geo.DeadReckon(meet, 12, 90, 900)
	feedTrack(p, 333000001, aStart, 90, 12, 3, 30*time.Second, t0)
	feedTrack(p, 333000002, bStart, 270, 12, 3, 30*time.Second, t0.Add(2*time.Second))
}

// feedFrame is the subset of the wire document the e2e assertions need.
type feedFrame struct {
	Type  string  `json:"type"`
	MMSI  string  `json:"mmsi"`
	Class string  `json:"class"`
	A     string  `json:"a"`
	B     string  `json:"b"`
	Lat   float64 `json:"lat"`
}

// awaitFrames pulls decoded frames off ch until both a state frame for
// the watched vessel and a collision event arrive.
func awaitFrames(t *testing.T, ch <-chan feedFrame, watched string) {
	t.Helper()
	var gotState, gotCollision bool
	deadline := time.After(10 * time.Second)
	for !gotState || !gotCollision {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatalf("stream ended early (state=%v collision=%v)", gotState, gotCollision)
			}
			switch f.Type {
			case "state":
				if f.MMSI == watched {
					if f.Lat == 0 {
						t.Fatalf("state frame without position: %+v", f)
					}
					gotState = true
				}
			case "event":
				if f.Class == "collision" {
					if f.A != "333000001" && f.B != "333000001" &&
						f.A != "333000002" && f.B != "333000002" {
						t.Fatalf("collision event for wrong pair: %+v", f)
					}
					gotCollision = true
				}
			}
		case <-deadline:
			t.Fatalf("frames missing after 10s (state=%v collision=%v)", gotState, gotCollision)
		}
	}
}

// TestLiveFeedOverSSE is the end-to-end acceptance path for the SSE
// transport: subscribe, receive a live position frame and a collision
// event, then disconnect cleanly.
func TestLiveFeedOverSSE(t *testing.T) {
	p, hub := newFeedPipeline(t)
	api := NewAPI(p)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/stream?vessel=333000001&events=collision,proximity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	frames := make(chan feedFrame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f feedFrame
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f) == nil {
				frames <- f
			}
		}
	}()

	// The hello frame proves the subscription is registered before any
	// traffic flows (its data line has no "type", decoding to zero).
	select {
	case <-frames:
	case <-time.After(5 * time.Second):
		t.Fatal("no hello frame")
	}
	if hub.Snapshot().Subscribers != 1 {
		t.Fatalf("subscribers %d", hub.Snapshot().Subscribers)
	}

	feedCollisionPair(p)
	p.Drain(5 * time.Second)
	awaitFrames(t, frames, "333000001")

	// Disconnect: closing the response body cancels the request
	// context, which must release the hub-side subscription.
	resp.Body.Close()
	waitSubscribers(t, hub, 0)
}

// TestLiveFeedOverTCP is the end-to-end acceptance path for the
// length-prefixed JSON transport.
func TestLiveFeedOverTCP(t *testing.T) {
	p, hub := newFeedPipeline(t)
	srv := feed.NewServer(hub)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe("127.0.0.1:0") }()
	defer srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		select {
		case err := <-errCh:
			t.Fatalf("serve: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never bound")
		}
		time.Sleep(5 * time.Millisecond)
	}

	client, err := feed.Dial(srv.Addr().String(), feed.Request{
		Vessels: []string{"333000001"},
		Events:  []string{"all"},
		Policy:  "drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(client.Topics) != 4 {
		t.Fatalf("resolved topics %v", client.Topics)
	}

	frames := make(chan feedFrame, 64)
	go func() {
		defer close(frames)
		for {
			raw, err := client.Next()
			if err != nil {
				return
			}
			var f feedFrame
			if json.Unmarshal(raw, &f) == nil {
				frames <- f
			}
		}
	}()

	feedCollisionPair(p)
	p.Drain(5 * time.Second)
	awaitFrames(t, frames, "333000001")

	// Disconnect cleanly: the server-side reader notices the close and
	// releases the subscription.
	client.Close()
	waitSubscribers(t, hub, 0)

	// A malformed subscribe request is answered with an error frame.
	if _, err := feed.Dial(srv.Addr().String(), feed.Request{Events: []string{"tsunami"}}); err == nil {
		t.Fatal("bad subscribe accepted")
	}
}

// waitSubscribers polls the hub until the subscriber gauge reaches n.
func waitSubscribers(t *testing.T, hub *feed.Hub, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for hub.Snapshot().Subscribers != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers stuck at %d, want %d", hub.Snapshot().Subscribers, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamEndpointWithoutFeed keeps the pull-only deployment honest:
// /api/stream 404s when no hub is configured.
func TestStreamEndpointWithoutFeed(t *testing.T) {
	p := newTestPipeline(t)
	api := NewAPI(p)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/stream?events=all", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
}

// TestStreamBadRequest: malformed subscription parameters are rejected
// with 400 before the stream opens.
func TestStreamBadRequest(t *testing.T) {
	p, _ := newFeedPipeline(t)
	api := NewAPI(p)
	for _, q := range []string{
		"",                      // no topics
		"vessel=abc",            // bad MMSI
		"region=nowhere",        // bad region
		"events=volcano",        // bad class
		"events=gap&policy=zzz", // bad policy
		"events=gap&buffer=x",   // bad buffer
	} {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/stream?"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, rec.Code)
		}
	}
}
