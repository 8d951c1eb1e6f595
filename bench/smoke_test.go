package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the command: Run starts
// every instance as a fresh process of its own executable, which here is
// this binary.
func TestMain(m *testing.M) {
	if served, err := ServeInstance(); served {
		if err != nil {
			fmt.Fprintln(os.Stderr, "instance:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeclarationsMatchBenchmarkJSON keeps decl.go and workloads.go in
// step with the file the driver reads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(Specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, Specs %d", len(f.Workloads), len(Specs))
	}
	for i, w := range f.Workloads {
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, Specs %q/%q", i, w.Name, w.Why, Specs[i].Name, Specs[i].Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, decl.go %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, decl.go %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, decl.go %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, decl.go %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload, traced, through the same entry point
// and the same process-per-instance path as the command at a fraction of
// the size: warm-up, probe, reader, stage stamps, layer suite, trace
// writer and JSON emit all execute.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	dir := t.TempDir()
	for _, spec := range Specs {
		rep, err := Run(Options{Workload: spec.Name, Seed: 3, Seconds: 0.6, Trace: true, scale: 0.03, OutDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !rep.Valid || rep.Failed != 0 {
			t.Errorf("%s: valid=%v invalid=%v failed=%d failures=%v", spec.Name, rep.Valid, rep.Invalid, rep.Failed, rep.Failures)
		}
		for _, m := range f.EndToEnd {
			got, ok := rep.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s: got %+v (present=%v), want unit %s", spec.Name, m.Name, got, ok, m.Unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s: end-to-end %s is %v, must never be 0", spec.Name, m.Name, got.Value)
			}
		}
		if len(rep.EndToEnd) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, %d declared", spec.Name, len(rep.EndToEnd), len(f.EndToEnd))
		}
		for _, m := range f.PerLayer {
			if got, ok := rep.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s: got %+v (present=%v), want unit %s", spec.Name, m.Name, got, ok, m.Unit)
			}
		}
		if len(rep.PerLayer) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", spec.Name, len(rep.PerLayer), len(f.PerLayer))
		}
		in := rep.Runs[0]
		if sum, vis := in.Info["stage_sum_us"], in.Info["stage_visible_mean_us"]; vis <= 0 || math.Abs(sum-vis) > 0.02*vis {
			t.Errorf("%s: stage means sum to %.1f µs, visible mean %.1f µs", spec.Name, sum, vis)
		}
		if _, err := json.Marshal(rep.Result()); err != nil {
			t.Errorf("%s: result does not encode: %v", spec.Name, err)
		}
		for _, name := range []string{spec.Name + ".traced.json", spec.Name + ".trace.json"} {
			if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
				t.Errorf("%s: output file %s missing or empty (%v)", spec.Name, name, err)
			}
		}
	}
}

// TestSmokeFlood covers -flood, the saturation measurement the paced
// rates in README.md are sized against: a paced world runs unpaced behind
// the in-flight cap and every report sent still becomes visible.
func TestSmokeFlood(t *testing.T) {
	rep, err := Run(Options{Workload: "strait_paced", Seed: 3, Seconds: 0.5, Flood: true, scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid || rep.Failed != 0 {
		t.Errorf("valid=%v invalid=%v failed=%d failures=%v", rep.Valid, rep.Invalid, rep.Failed, rep.Failures)
	}
	if rep.Spec.Rate != 0 || rep.Counts["reports_sent"] == 0 {
		t.Errorf("flood ran at rate %d and sent %d reports", rep.Spec.Rate, rep.Counts["reports_sent"])
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		paced bool
		want  float64
	}{
		{"setup_s", true, 2}, {"cpu_us_per_report", true, 2}, {"visible_p50_ms", false, 2},
		{"heap_peak_mb", true, 3}, {"reports_per_s", true, 3}, {"reports_per_s", false, 4.5},
	} {
		for _, d := range endToEnd {
			if d.Name != tc.name {
				continue
			}
			if got := atReferenceSpeed(d, 3, 1.5, tc.paced); got != tc.want {
				t.Errorf("%s paced=%v: 3 at slowdown 1.5 reads %v, want %v", tc.name, tc.paced, got, tc.want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(cpu, q1, q3 float64) *Summary {
		return &Summary{Workloads: map[string]map[string]Quartiles{
			"global_paced": {"cpu_us_per_report": {N: 10, Q1: q1, Median: cpu, Q3: q3, Unit: "us"}},
		}}
	}
	for _, tc := range []struct {
		name  string
		a, b  *Summary
		worse int
	}{
		{"same", mk(500, 490, 510), mk(505, 495, 515), 0},
		{"worse", mk(500, 490, 510), mk(700, 690, 710), 1},
		{"unresolved", mk(500, 400, 600), mk(700, 690, 710), 0},
	} {
		if got := Compare(testWriter{t}, tc.a, tc.b); got != tc.worse {
			t.Errorf("%s: %d rows worse, want %d", tc.name, got, tc.worse)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }
