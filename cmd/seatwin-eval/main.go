// Command seatwin-eval regenerates the paper's evaluation section: the
// Table 1 route-forecasting comparison, the Table 2 collision
// forecasting grid, the Figure 6 scalability series, the §6.1 dataset
// statistics and the §5.1 indirect-vs-direct VTFF comparison.
//
// Usage:
//
//	seatwin-eval -exp all|table1|table2|figure6|dataset|vtff
//	             [-scale small|full] [-seed 42]
//	             [-vessels 20000] [-messages 400000]   (figure6)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"seatwin/internal/events"
	"seatwin/internal/experiments"
	"seatwin/internal/svrf"
)

func main() {
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "all | table1 | table2 | figure6 | dataset | vtff")
		rate      = flag.Float64("rate", 3000, "figure6: ingest pacing, messages/second (0 = max speed)")
		scaleFlag = flag.String("scale", "small", "small (fast) | full (EXPERIMENTS.md scale)")
		seed      = flag.Int64("seed", 42, "experiment seed")
		vessels   = flag.Int("vessels", 20000, "figure6: fleet size")
		messages  = flag.Int("messages", 400000, "figure6: message volume")
	)
	flag.Parse()

	// A typo'd -exp or -scale would otherwise run nothing (or the wrong
	// scale) and still exit 0.
	switch *exp {
	case "all", "table1", "table2", "figure6", "dataset", "vtff":
	default:
		return fmt.Errorf("unknown -exp %q (want all, table1, table2, figure6, dataset or vtff)", *exp)
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown -scale %q (want small or full)", *scaleFlag)
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	needModel := want("table1") || want("table2") || want("dataset") || want("vtff")
	var tm experiments.TrainedModel
	if needModel {
		start := time.Now()
		log.Printf("training S-VRF (scale=%s)...", *scaleFlag)
		tm = experiments.TrainSVRF(scale, *seed)
		log.Printf("trained in %v", time.Since(start).Round(time.Second))
	}

	var sections []string
	if want("dataset") {
		sections = append(sections, experiments.RunDatasetStats(tm).Format())
	}
	if want("table1") {
		sections = append(sections, experiments.RunTable1(tm).Format())
	}
	if want("table2") {
		sections = append(sections, experiments.RunTable2(tm, *seed).Format())
	}
	if want("vtff") {
		sections = append(sections, experiments.RunVTFF(tm, *seed).Format())
	}
	if want("figure6") {
		log.Printf("running figure 6 with %d vessels / %d messages...", *vessels, *messages)
		// An untrained model has the same per-inference cost as a
		// trained one; Figure 6 measures latency, not accuracy.
		var fc events.TrackForecaster
		if needModel {
			fc = events.SVRFForecaster{Model: tm.Model}
		} else {
			m, err := svrf.New(svrf.DefaultConfig())
			if err != nil {
				return err
			}
			fc = events.SVRFForecaster{Model: m}
		}
		res, err := experiments.RunFigure6(fc, *vessels, *messages, *rate, *seed)
		if err != nil {
			return err
		}
		sections = append(sections, res.Format())
	}
	fmt.Println(strings.Join(sections, "\n"))
	return nil
}
