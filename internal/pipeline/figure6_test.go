package pipeline

import (
	"testing"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/metrics"
)

// TestFigure6MiniRun streams a small global fleet through the full
// pipeline via the broker and checks the Figure 6 properties: the
// series covers a growing actor population, the steady-state moving
// average stays at a sane magnitude, and nothing is lost.
func TestFigure6MiniRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run, skipped in short mode")
	}
	p, err := New(DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(5 * time.Second)

	cfg := ScalabilityConfig{
		Vessels:    2000,
		Messages:   60000,
		Seed:       7,
		Consumers:  4,
		Partitions: 8,
	}
	res, err := RunScalability(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != cfg.Messages {
		t.Fatalf("ingested %d of %d", res.Ingested, cfg.Messages)
	}
	if res.Stats.Messages != int64(cfg.Messages) {
		t.Fatalf("pipeline counted %d messages", res.Stats.Messages)
	}
	if len(res.Series) < 10 {
		t.Fatalf("series has %d samples", len(res.Series))
	}
	// Actor count grows as unseen vessels appear.
	first, last := res.Series[0], res.Series[len(res.Series)-1]
	if last.Actors <= first.Actors {
		t.Fatalf("actor count did not grow: %d -> %d", first.Actors, last.Actors)
	}
	if last.Actors < 1000 {
		t.Fatalf("too few live actors at the end: %d", last.Actors)
	}
	// Steady-state processing stays in the sub-millisecond regime for
	// the kinematic forecaster (the paper reports "less than a few
	// milliseconds" with the BiLSTM on its hardware).
	if last.AvgProcess > 20*time.Millisecond {
		t.Fatalf("steady-state processing %v", last.AvgProcess)
	}
	// All samples sane.
	for _, s := range res.Series {
		if s.AvgProcess < 0 || s.Actors <= 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	if res.Stats.Forecasts == 0 {
		t.Fatal("no forecasts generated")
	}
}

// TestBlockSeriesCloses feeds scripted recorder snapshots to the
// Figure 6 sampler: a read fewer than seriesBlock reports past the open
// block adds nothing, and a read far past it (4 500 reports in one
// read) closes exactly one point holding that block's ΔSum/ΔCount.
func TestBlockSeriesCloses(t *testing.T) {
	snap := func(count int64, sum time.Duration) metrics.Snapshot {
		return metrics.Snapshot{Count: count, Sum: sum}
	}
	var b blockSeries
	b.add(snap(499, 499*time.Millisecond), 10, 20)
	if len(b.series) != 0 {
		t.Fatalf("a 499-report block closed: %+v", b.series)
	}
	b.add(snap(500, 500*time.Millisecond+500*time.Microsecond), 11, 21)
	b.add(snap(5000, 500*time.Millisecond+500*time.Microsecond+4500*3*time.Microsecond), 12, 22)
	b.add(snap(5100, time.Second), 13, 23)
	want := []Sample{
		{Vessels: 11, Actors: 21, Reports: 500, AvgProcess: time.Millisecond + time.Microsecond},
		{Vessels: 12, Actors: 22, Reports: 5000, AvgProcess: 3 * time.Microsecond},
	}
	if len(b.series) != len(want) {
		t.Fatalf("series %+v, want %+v", b.series, want)
	}
	for i := range want {
		if b.series[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, b.series[i], want[i])
		}
	}
}

// TestRunScalabilitySeries runs a small Figure 6 experiment (also in
// -short mode, so race runs cover the sampler goroutine) and checks
// that the series tiles the processing-time recorder: every point is
// its own block of at least seriesBlock reports, the block means
// reproduce the recorder's sum, and less than one block is left open.
func TestRunScalabilitySeries(t *testing.T) {
	p, err := New(DefaultConfig(events.NewKinematicForecaster()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown(5 * time.Second)
	cfg := ScalabilityConfig{Vessels: 200, Messages: 3000, Seed: 5, Consumers: 2, Partitions: 4}
	res, err := RunScalability(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingested != cfg.Messages || res.Stats.Latency.Count != int64(cfg.Messages) {
		t.Fatalf("ingested %d, processed %d of %d", res.Ingested, res.Stats.Latency.Count, cfg.Messages)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	var prev int64
	var sum time.Duration
	for i, s := range res.Series {
		n := s.Reports - prev
		if n < seriesBlock {
			t.Fatalf("point %d closes a block of %d reports: %+v", i, n, res.Series)
		}
		if s.AvgProcess <= 0 || s.Actors <= 0 || s.Vessels <= 0 {
			t.Fatalf("bad point %d: %+v", i, s)
		}
		sum += s.AvgProcess * time.Duration(n)
		prev = s.Reports
	}
	if open := res.Stats.Latency.Count - prev; open >= seriesBlock {
		t.Fatalf("%d reports left in the open block", open)
	}
	// Each block mean is ΔSum/ΔCount truncated to the nanosecond, so the
	// blocks' sums fall short of the recorder's by less than 1 ns per
	// closed report, plus whatever the open block holds.
	total := res.Stats.Latency.Sum
	if sum > total || (prev == res.Stats.Latency.Count && total-sum >= time.Duration(prev)) {
		t.Fatalf("block sums %v, recorder sum %v over %d reports", sum, total, prev)
	}
}
