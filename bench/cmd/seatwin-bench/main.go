// Command seatwin-bench runs the benchmark harness:
//
//	seatwin-bench -workload global_paced -seed 1 -seconds 12 -trace 0
//	seatwin-bench -workload layers
//	seatwin-bench -workload all -runs 5 -summary out/summary.json
//	seatwin-bench -compare baseline.json out/summary.json
//
// A workload run prints its metrics to standard error and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero when the run is
// invalid or an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"seatwin/bench"
)

func main() {
	if served, err := bench.ServeInstance(); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, "seatwin-bench instance:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "global_paced | global_flood | strait_paced | serve_mix | all (with -runs) | layers")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 12, "measured seconds per run, split over four fresh set-ups")
		trace    = flag.Int("trace", 0, "1 records stage stamps and prints the per-layer metrics")
		out      = flag.String("out", "out", "directory for <workload>.json and <workload>.trace.json")
		runs     = flag.Int("runs", 0, "repeat the workload over seeds seed..seed+runs-1 and write a summary of medians and quartiles")
		summary  = flag.String("summary", "out/summary.json", "where -runs writes its summary")
		flood    = flag.Bool("flood", false, "run a paced workload's world unpaced instead, to measure its saturation rate")
		compare  = flag.Bool("compare", false, "compare two summaries (or run reports): seatwin-bench -compare a.json b.json")
	)
	flag.Parse()
	opts := bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		OutDir: *out, Flood: *flood,
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *workload == "layers":
		err = runLayers(*seed)
	case *runs > 0:
		opts.Trace = false
		err = runMany(opts, *seed, *runs, *summary)
	default:
		err = runOne(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seatwin-bench:", err)
		os.Exit(1)
	}
}

func printMetrics(m map[string]bench.Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func runOne(o bench.Options) error {
	rep, err := bench.Run(o)
	if err != nil {
		return err
	}
	res := rep.Result()
	printMetrics(res.Metrics)
	for k, n := range rep.Failures {
		fmt.Fprintf(os.Stderr, "failure %-28s %d\n", k, n)
	}
	if !rep.Valid {
		fmt.Fprintf(os.Stderr, "\"valid\": false: %v\n", rep.Invalid)
		return fmt.Errorf("run is not valid")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	return nil
}

func runLayers(seed int64) error {
	suite, err := bench.LayerSuite(seed, 200*time.Millisecond)
	if err != nil {
		return err
	}
	line, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runMany(o bench.Options, seed int64, n int, path string) error {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	reps, err := bench.RunMany(o, seeds)
	if err != nil {
		return err
	}
	sum := bench.Summarise(reps)
	if err := bench.WriteJSON(path, sum); err != nil {
		return err
	}
	for _, r := range reps {
		if !r.Valid || !r.Correct {
			return fmt.Errorf("%s seed %d: valid=%v failed=%d %v %v", r.Workload, r.Seed, r.Valid, r.Failed, r.Invalid, r.Failures)
		}
	}
	line, err := json.MarshalIndent(sum.Workloads, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two files, got %d", len(args))
	}
	a, err := bench.LoadSummary(args[0])
	if err != nil {
		return err
	}
	b, err := bench.LoadSummary(args[1])
	if err != nil {
		return err
	}
	if worse := bench.Compare(os.Stdout, a, b); worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
