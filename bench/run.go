// Package bench is seatwin's one benchmark harness: it composes the
// production path (NMEA sentence → decode → broker → consume loops →
// vessel/cell/collision/writer actors with a trained S-VRF → kvstore,
// views, feed hub, HTTP API) exactly as cmd/seatwin does, drives it from
// inputs pre-generated in set-up, and measures every layer from outside:
// by timing calls into public functions, by decorating the
// pipeline.RecordConsumer handed to ConsumeLoop, and by reading public
// accessors. See README.md for the metrics, the workloads and how they
// interact.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Instances is how many times a run sets the program up afresh, each in
// a process of its own, each measuring a window of seconds/Instances;
// every metric is the median over instances. The process matters: on the
// reference box identical instances inside one process agree within 2 %
// while identical processes differ by 10–20 % (where a process's memory
// lands on the shared host, not what it computes), so only separate
// processes give the median independent draws.
const Instances = 4

// Options select what Run does.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the total measured time, split evenly over Instances.
	Seconds float64
	Trace   bool
	// OutDir receives <workload>.json (and .trace.json); "" writes none.
	OutDir string
	// Flood runs a paced workload's world unpaced instead, with about a
	// second of its paced traffic in flight: how the saturation rates in
	// README.md were measured.
	Flood bool
	// scale below 1 is the smoke test's: it shrinks fleets and warm-up,
	// lifts the sample-count floors and sets the program up once instead
	// of Instances times. The command always runs at 1.
	scale float64
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the versioned output document of one run.
type Report struct {
	Schema    int               `json:"schema"`
	Claim     *string           `json:"claim"` // this harness claims no gain
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Valid     bool              `json:"valid"`
	Invalid   []string          `json:"invalid,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  map[string]int64  `json:"failures,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
	Info      map[string]Metric `json:"info"`
	Counts    map[string]int64  `json:"counts"`
	Env       Env               `json:"env"`
	Spec      Spec              `json:"workload_constants"`
	Runs      []*instance       `json:"instances"`
}

// Result is the contract object printed as the last line of stdout.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Result projects the report onto the driver's contract: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *Report) Result() Result {
	m := r.EndToEnd
	if r.Traced {
		m = r.PerLayer
	}
	return Result{Correct: r.Correct && r.Valid, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// plan resolves the options into the workload's constants, the window
// each instance measures and the instance count.
func (o Options) plan() (spec Spec, window time.Duration, instances int, err error) {
	if spec, err = SpecByName(o.Workload); err != nil {
		return
	}
	if o.Seconds <= 0 {
		return spec, 0, 0, fmt.Errorf("seconds must be positive")
	}
	instances = Instances
	if o.scale > 0 && o.scale < 1 {
		spec = spec.scaled(o.scale)
		instances = 1
	}
	if o.Flood && spec.Rate > 0 {
		spec.InflightCap, spec.FloodBudget, spec.Rate = spec.Rate, 5*spec.Rate, 0
	}
	window = time.Duration(o.Seconds / float64(instances) * float64(time.Second))
	return spec, window, instances, nil
}

// Run executes one workload: Instances fresh set-ups, each followed by a
// measured window, and folds them into a report.
func Run(o Options) (*Report, error) {
	spec, window, instances, err := o.plan()
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Schema: 1, Workload: spec.Name, Seed: o.Seed, Seconds: o.Seconds,
		Traced: o.Trace, Failures: map[string]int64{}, Counts: map[string]int64{},
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}, Info: map[string]Metric{},
		Env: environment(), Spec: spec,
	}
	for k := 0; k < instances; k++ {
		// Each instance draws its own world from the seed, so a run
		// averages over several fleets rather than replaying one.
		inst, err := job{Spec: spec, Seed: o.Seed*int64(Instances) + int64(k), Window: window, Traced: o.Trace}.run()
		if err != nil {
			return nil, fmt.Errorf("%s instance %d: %w", spec.Name, k, err)
		}
		rep.Runs = append(rep.Runs, inst)
	}
	fold(rep)
	if o.Trace {
		if err := rep.addLayerSuite(); err != nil {
			return nil, err
		}
	}
	if o.OutDir != "" {
		if err := rep.write(o.OutDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// job is one instance's work order: what Run hands, as JSON on standard
// input, to the fresh process that runs it.
type job struct {
	Spec   Spec          `json:"spec"`
	Seed   int64         `json:"seed"`
	Window time.Duration `json:"window_ns"`
	Traced bool          `json:"traced"`
}

// instanceEnv marks a process started by job.run.
const instanceEnv = "SEATWIN_BENCH_INSTANCE"

// run executes the job in a fresh process of this executable (see
// Instances for why a process) and waits for it.
func (j job) run() (*instance, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), instanceEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("instance process: %w", err)
	}
	var inst instance
	if err := json.Unmarshal(out, &inst); err != nil {
		return nil, fmt.Errorf("instance process output: %w", err)
	}
	return &inst, nil
}

// ServeInstance is the other end of job.run. The command's main and the
// package's TestMain call it before anything else: in a process started
// by job.run it reads the job from standard input, runs it, writes the
// instance to standard output and returns true; in any other process it
// returns false at once.
func ServeInstance() (bool, error) {
	if os.Getenv(instanceEnv) == "" {
		return false, nil
	}
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		return true, fmt.Errorf("read job: %w", err)
	}
	inst, err := runInstance(j.Spec, j.Seed, j.Window, j.Traced)
	if err != nil {
		return true, err
	}
	return true, json.NewEncoder(os.Stdout).Encode(inst)
}

// fold reduces the instances to medians and sums.
func fold(rep *Report) {
	values := map[string][]float64{}
	infos := map[string][]float64{}
	for _, in := range rep.Runs {
		rep.Attempted += in.Attempted
		rep.Failed += in.Failed
		for k, n := range in.Failures {
			rep.Failures[k] += n
		}
		for k, n := range in.Counts {
			rep.Counts[k] += n
		}
		rep.Invalid = append(rep.Invalid, in.Invalid...)
		for k, v := range in.Metrics {
			values[k] = append(values[k], v)
		}
		for k, v := range in.Info {
			infos[k] = append(infos[k], v)
		}
	}
	foldVisible(rep, values)
	// End-to-end metrics are reported at the reference host speed (see
	// calib.go): the median measured value converted by the median of the
	// slowdowns the instances measured around their windows. The values
	// as measured stay in info as raw.<name>.
	var hosts []float64
	for _, in := range rep.Runs {
		hosts = append(hosts, in.Host)
	}
	for _, d := range endToEnd {
		raw := median(values[d.Name])
		rep.EndToEnd[d.Name] = Metric{Value: atReferenceSpeed(d, raw, median(hosts), rep.Spec.Rate > 0), Unit: d.Unit}
		rep.Info["raw."+d.Name] = Metric{Value: raw, Unit: d.Unit}
	}
	for _, d := range perLayer {
		rep.PerLayer[d.Name] = Metric{Value: median(values[d.Name]), Unit: d.Unit}
	}
	for k, v := range infos {
		rep.Info[k] = Metric{Value: median(v), Unit: infoUnit(k)}
	}
	rep.Info["failed_share"] = Metric{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "ratio"}
	rep.Valid = len(rep.Invalid) == 0
	rep.Correct = rep.Failed == 0
}

// The generator-lateness gates, on the median over a run's instances.
// Latency is measured from due times, so lateness is inside every
// visible_* number; a run is only worth reporting while it is small
// against what is gated.
//
// The gated latency is a median (0.3–0.4 ms), so the tight gate is on the
// generator's median lateness: 35–55 µs on the reference box, 83 µs the
// worst run seen. The p99 gate is loose because it has to be: a window
// holds 300–4500 reports, so one stall of the shared host (tens of
// milliseconds, 100 ms now and then) puts a window's p99 lateness
// anywhere up to that stall: 9–15 % of healthy instances exceed the 5 ms
// the issue wanted, 2–4 % exceed 25 ms, and the median of four reached
// 17.7 ms in 120 logged runs (README). It rejects only a run whose
// generator was starved for more than a hundredth of most of its windows;
// bench.gen_late_p99_us is reported so that pipeline.visible_p99_ms can be
// read against it.
const (
	maxLateP50US = 200
	maxLateP99US = 100_000
)

// foldVisible applies the sample floor to the visible-latency
// percentiles: a percentile is reported only with ten samples beyond
// it. Where every instance has that many, the run's value is the median
// of the instances' own percentiles (already in values); where only the
// pooled run has, it is the pooled percentile; otherwise the run is
// mis-sized.
func foldVisible(rep *Report, values map[string][]float64) {
	var pooled []float64
	minN := -1
	for _, in := range rep.Runs {
		pooled = append(pooled, in.VisMS...)
		if minN < 0 || len(in.VisMS) < minN {
			minN = len(in.VisMS)
		}
	}
	sort.Float64s(pooled)
	for _, pc := range []struct {
		name string
		q    float64
	}{{"visible_p50_ms", 0.50}, {"pipeline.visible_p90_ms", 0.90}, {"pipeline.visible_p99_ms", 0.99}} {
		floor := int(10/(1-pc.q) + 0.5)
		switch {
		case minN >= floor:
		case len(pooled) >= floor:
			values[pc.name] = []float64{percentile(pooled, pc.q)}
		case !rep.Spec.Smoke:
			rep.Invalid = append(rep.Invalid, fmt.Sprintf("%s has %d samples in the whole run, needs %d", pc.name, len(pooled), floor))
		}
	}
	if rep.Spec.Smoke {
		return
	}
	if late := median(values["bench.gen_late_p50_us"]); late > maxLateP50US {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("generator ran late: median %.0f µs > %d", late, maxLateP50US))
	}
	if late := median(values["bench.gen_late_p99_us"]); late > maxLateP99US {
		rep.Invalid = append(rep.Invalid, fmt.Sprintf("generator ran late: p99 %.0f µs > %d", late, maxLateP99US))
	}
}

func infoUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	}
	return "count"
}

// RunMany repeats workloads (all four when workload is "all") over the
// given seeds, each run in fresh pipelines, and returns every report.
func RunMany(o Options, seeds []int64) ([]*Report, error) {
	names := []string{o.Workload}
	if o.Workload == "all" {
		names = names[:0]
		for _, s := range Specs {
			names = append(names, s.Name)
		}
	}
	var out []*Report
	for _, name := range names {
		for _, seed := range seeds {
			o.Workload, o.Seed = name, seed
			rep, err := Run(o)
			if err != nil {
				return nil, err
			}
			out = append(out, rep)
		}
	}
	return out, nil
}

// write stores the report (and a traced run's spans) under dir.
func (rep *Report) write(dir string) error {
	name := rep.Workload
	if rep.Traced {
		var spans []span
		for _, in := range rep.Runs {
			spans = append(spans, in.Spans...)
		}
		if err := WriteJSON(filepath.Join(dir, name+".trace.json"), map[string]any{
			"schema": 1, "workload": rep.Workload, "seed": rep.Seed, "spans": spans,
		}); err != nil {
			return err
		}
		name += ".traced"
	}
	for _, in := range rep.Runs {
		in.Spans, in.VisMS = nil, nil
	}
	return WriteJSON(filepath.Join(dir, name+".json"), rep)
}

// WriteJSON stores v under path, creating the directory.
func WriteJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
