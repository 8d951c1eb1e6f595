package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/chaos"
	"seatwin/internal/cluster"
	"seatwin/internal/events"
	"seatwin/internal/feed"
	"seatwin/internal/views"
)

// TestStatsAllocBudget gates the cost of one Stats call, which every
// /metrics and /api/stats read pays: with the four pipeline latency
// recorders each past 32k observations, a call allocates under 16 KiB.
// A recorder that copies and sorts its samples per snapshot costs
// megabytes here.
func TestStatsAllocBudget(t *testing.T) {
	vw := views.New(views.Config{RefreshInterval: -1})
	defer vw.Close()
	cfg := DefaultConfig(events.NewKinematicForecaster())
	cfg.Views = vw
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(2 * time.Second)

	for i := 0; i < 40_000; i++ {
		d := time.Duration(i%5000+1) * time.Microsecond
		p.latency.Observe(uint64(i), d)
		p.inferLat.Observe(uint64(i), d/4)
		p.proxDet.updateLat.Observe(uint64(i), d/8)
		p.collDet.updateLat.Observe(uint64(i), d/2)
	}
	if c := p.Stats().Latency.Count; c != 40_000 {
		t.Fatalf("Latency.Count = %d, want 40000", c)
	}

	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		_ = p.Stats()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 16<<10 {
		t.Fatalf("Stats allocates %d B per call, want < 16 KiB", per)
	}
}

// metricsShape reduces a /metrics body to what dashboards bind to: each
// # TYPE line and each sample's series name and label set, in emission
// order, without values. Label values are kept only for quantile, whose
// values the exporter fixes; the values of data labels (topic, group)
// are dropped, and the repeated lines that leaves are folded into one.
func metricsShape(body string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !strings.HasPrefix(line, "# TYPE ") {
			series, _, _ := strings.Cut(line, " ")
			if name, labels, ok := strings.Cut(series, "{"); ok {
				var keys []string
				for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
					if k, _, _ := strings.Cut(kv, "="); k != "quantile" {
						kv = k
					}
					keys = append(keys, kv)
				}
				series = name + "{" + strings.Join(keys, ",") + "}"
			}
			line = series
		}
		if len(out) == 0 || out[len(out)-1] != line {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsSeriesGolden pins every series name, # TYPE and label set
// /metrics emits, bare and with every optional block (feed hub, chaos
// injector, cluster worker) switched on. Renaming a series breaks
// scrapers: change a golden file only on purpose, from the shape the
// failure prints.
func TestMetricsSeriesGolden(t *testing.T) {
	full := func(t *testing.T) *Pipeline {
		coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Partitions: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		cfg := DefaultConfig(events.NewKinematicForecaster())
		cfg.Feed = feed.NewHub(feed.Options{})
		cfg.Chaos = chaos.New(chaos.Policy{Seed: 1})
		cfg.Cluster = &ClusterConfig{
			WorkerID:          "a",
			Membership:        coord,
			Partitions:        8,
			Broker:            broker.New(),
			HeartbeatInterval: 100 * time.Millisecond,
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Shutdown(2 * time.Second) })
		// An external consumer group keeps the cluster broker's lag
		// series present whatever the cluster has subscribed so far.
		if _, err := p.cl.cfg.Broker.Subscribe(p.cl.topics[0], "external"); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name string
		new  func(*testing.T) *Pipeline
	}{{"bare", newTestPipeline}, {"full", full}} {
		t.Run(c.name, func(t *testing.T) {
			p := c.new(t)
			feedClosePair(p, t0)
			p.Drain(5 * time.Second)
			rec := newMetricsRecorder(NewAPI(p))
			if rec.Code != 200 {
				t.Fatalf("/metrics status %d", rec.Code)
			}
			got := metricsShape(rec.Body.String())
			path := filepath.Join("testdata", "metrics_"+c.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("/metrics series drifted from %s\n%s\nfull shape:\n%s", path, lineDiff(string(want), got), got)
			}
		})
	}
}

// lineDiff lists the lines only one of want and got has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for l, n := range count {
		switch {
		case n > 0:
			fmt.Fprintf(&b, "- %s\n", l)
		case n < 0:
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	if b.Len() == 0 {
		return "same lines, different order"
	}
	return b.String()
}
