// Command seatwin-train trains the S-VRF model (§4.2, Figure 3) on a
// simulated regional AIS dataset built with the paper's preprocessing
// (30 s downsampling, 20-step windows, six 5-minute targets), prints
// the Table 1 comparison against the linear kinematic baseline and
// saves the trained weights.
//
// Usage:
//
//	seatwin-train [-scale small|full] [-seed 42] [-out s-vrf.gob]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"seatwin/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleFlag = flag.String("scale", "small", "small (fast) | full (EXPERIMENTS.md scale)")
		seed      = flag.Int64("seed", 42, "dataset seed")
		out       = flag.String("out", "s-vrf.gob", "output model file")
	)
	flag.Parse()

	// A typo'd -scale would otherwise silently train at the default scale.
	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown -scale %q (want small or full)", *scaleFlag)
	}

	start := time.Now()
	log.Printf("recording dataset and training (scale=%s)...", *scaleFlag)
	tm := experiments.TrainSVRF(scale, *seed)
	log.Printf("trained on %d windows from %d vessels (%d messages) in %v",
		tm.TrainWindows, tm.Vessels, tm.Messages, time.Since(start).Round(time.Second))

	fmt.Println()
	fmt.Print(experiments.RunDatasetStats(tm).Format())
	fmt.Println()
	fmt.Print(experiments.RunTable1(tm).Format())

	if err := tm.Model.SaveFile(*out); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	log.Printf("model saved to %s", *out)
	return nil
}
