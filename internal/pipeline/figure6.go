package pipeline

import (
	"sync/atomic"
	"time"

	"seatwin/internal/broker"
	"seatwin/internal/fleetsim"
	"seatwin/internal/geo"
	"seatwin/internal/metrics"
)

// ScalabilityConfig shapes the Figure 6 experiment: a growing global
// fleet streamed through the full pipeline while the per-message
// processing time is recorded against the live actor count.
type ScalabilityConfig struct {
	// Vessels is the fleet size (the paper reaches 170K live vessels).
	Vessels int
	// Messages bounds the experiment volume.
	Messages int
	// Seed drives the simulated world.
	Seed int64
	// Consumers is the number of broker consumers feeding the pipeline
	// (the paper consumes several Kafka partitions concurrently).
	Consumers int
	// Partitions of the ingestion topic.
	Partitions int
	// RatePerSec, when positive, paces production to that many messages
	// per second. The paper's evaluation consumed a LIVE stream — the
	// system had headroom — so a paced run reproduces its conditions;
	// an unpaced run is a saturation stress test instead.
	RatePerSec float64
}

// DefaultScalabilityConfig runs a laptop-scale version of the
// experiment.
func DefaultScalabilityConfig() ScalabilityConfig {
	return ScalabilityConfig{
		Vessels:    20000,
		Messages:   400000,
		Seed:       1,
		Consumers:  4,
		Partitions: 8,
	}
}

// Sample is one point of the Figure 6 series: the mean vessel-actor
// processing time over one block of at least seriesBlock reports, at
// the population reached when the block closed. Vessels counts the
// distinct MMSIs seen (the paper's x-axis); Actors the total live
// actors including cell, collision and writer actors; Reports the
// pipeline's processed-report count at the block's end.
type Sample struct {
	Vessels    int64
	Actors     int64
	Reports    int64
	AvgProcess time.Duration
}

// seriesBlock is the fewest processed reports one series point averages.
const seriesBlock = 500

// blockSeries turns successive snapshots of the pipeline's
// processing-time recorder into the Figure 6 series: one point per
// block of at least seriesBlock reports, holding that block's own mean
// ΔSum/ΔCount.
type blockSeries struct {
	start  metrics.Snapshot // the recorder when the open block began
	series []Sample
}

// add closes the open block when snap is at least seriesBlock reports
// past its start; otherwise the block stays open.
func (b *blockSeries) add(snap metrics.Snapshot, vessels, actors int64) {
	n := snap.Count - b.start.Count
	if n < seriesBlock {
		return
	}
	b.series = append(b.series, Sample{
		Vessels:    vessels,
		Actors:     actors,
		Reports:    snap.Count,
		AvgProcess: (snap.Sum - b.start.Sum) / time.Duration(n),
	})
	b.start = snap
}

// sampleSeries reads the processing-time recorder every few
// milliseconds until stop closes, then once more, and returns the
// series those reads closed.
func (p *Pipeline) sampleSeries(stop <-chan struct{}) []Sample {
	b := blockSeries{start: p.latency.Snapshot()}
	read := func() {
		b.add(p.latency.Snapshot(), atomic.LoadInt64(&p.vessels), p.system.LiveActors())
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			read()
			return b.series
		}
	}
}

// ScalabilityResult is the Figure 6 outcome.
type ScalabilityResult struct {
	Series   []Sample
	Stats    Stats
	Duration time.Duration
	Ingested int
}

// RunScalability streams cfg.Messages AIS reports from a simulated
// global fleet through the pipeline via the embedded broker and
// returns the processing-time-vs-actor-count series. Ingestion runs
// through ConsumeLoop, the pipeline's batched production path.
func RunScalability(p *Pipeline, cfg ScalabilityConfig) (ScalabilityResult, error) {
	if cfg.Vessels <= 0 {
		cfg = DefaultScalabilityConfig()
	}
	start := time.Now()
	br := broker.New()
	const topic, group = "ais-global", "pipeline"
	if err := br.CreateTopic(topic, cfg.Partitions); err != nil {
		return ScalabilityResult{}, err
	}
	consumers := make([]*broker.Consumer, 0, cfg.Consumers)
	for i := 0; i < cfg.Consumers; i++ {
		c, err := br.Subscribe(topic, group)
		if err != nil {
			for _, c := range consumers {
				c.Close()
			}
			return ScalabilityResult{}, err
		}
		consumers = append(consumers, c)
	}

	stopSampling := make(chan struct{})
	sampled := make(chan []Sample, 1)
	go func() { sampled <- p.sampleSeries(stopSampling) }()

	// Consumers drain the topic into the pipeline concurrently. The poll
	// wait is long because a quiet poll is no end-of-stream signal on a
	// saturated machine; the loops end when their consumers close.
	done := make(chan int, len(consumers))
	for _, c := range consumers {
		go func(c *broker.Consumer) { done <- p.ConsumeLoop(c, time.Hour) }(c)
	}

	err := produceFleet(br, topic, cfg)
	// Once production has finished and the group lag is zero, every
	// record has been handed to the pipeline.
	for err == nil {
		lag, lerr := br.Lag(topic, group)
		if lerr != nil {
			break
		}
		total := int64(0)
		for _, l := range lag {
			total += l
		}
		if total == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, c := range consumers {
		c.Close()
	}
	ingested := 0
	for range consumers {
		ingested += <-done
	}
	p.Drain(10 * time.Second)
	close(stopSampling)
	series := <-sampled
	if err != nil {
		return ScalabilityResult{}, err
	}
	return ScalabilityResult{
		Series:   series,
		Stats:    p.Stats(),
		Duration: time.Since(start),
		Ingested: ingested,
	}, nil
}

// produceFleet plays the AIS receiver network: it produces cfg.Messages
// reports of the simulated world onto topic, keyed by MMSI so
// per-vessel order is kept, paced to cfg.RatePerSec when positive.
func produceFleet(br *broker.Broker, topic string, cfg ScalabilityConfig) error {
	world := fleetsim.NewWorld(fleetsim.Config{
		Vessels:     cfg.Vessels,
		Seed:        cfg.Seed,
		Region:      geo.BBox{}, // global
		KeepSailing: true,
	})
	paceStart := time.Now()
	for produced := 0; produced < cfg.Messages; {
		r, ok := world.Next()
		if !ok {
			return nil
		}
		if _, _, err := br.Produce(topic, r.Pos.MMSI.String(), r.Pos); err != nil {
			return err
		}
		produced++
		if cfg.RatePerSec > 0 {
			ahead := time.Duration(float64(produced)/cfg.RatePerSec*float64(time.Second)) - time.Since(paceStart)
			if ahead > 10*time.Millisecond {
				time.Sleep(ahead)
			}
		}
	}
	return nil
}
