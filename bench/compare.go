package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Quartiles summarise one end-to-end metric over repeated runs.
type Quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// Summary is the comparable digest of repeated runs: per workload, per
// end-to-end metric, the quartiles over the runs. bench/baseline.json is
// one.
type Summary struct {
	Schema    int                             `json:"schema"`
	Claim     *string                         `json:"claim"`
	Env       Env                             `json:"env"`
	Seconds   float64                         `json:"seconds"`
	Seeds     []int64                         `json:"seeds"`
	Workloads map[string]map[string]Quartiles `json:"workloads"`
}

// quartiles of the values, by the same exclusive method as Python's
// statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		h := p * float64(len(s)+1)
		i := int(h)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Summarise folds reports (any mix of workloads) into a Summary.
func Summarise(reports []*Report) *Summary {
	sum := &Summary{Schema: 1, Workloads: map[string]map[string]Quartiles{}}
	vals := map[string]map[string][]float64{}
	seen := map[int64]bool{}
	for _, r := range reports {
		sum.Env, sum.Seconds = r.Env, r.Seconds
		if !seen[r.Seed] {
			seen[r.Seed] = true
			sum.Seeds = append(sum.Seeds, r.Seed)
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.EndToEnd {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	for w, ms := range vals {
		sum.Workloads[w] = map[string]Quartiles{}
		for _, d := range endToEnd {
			if v := ms[d.Name]; len(v) > 0 {
				q1, med, q3 := quartiles(v)
				sum.Workloads[w][d.Name] = Quartiles{N: len(v), Q1: q1, Median: med, Q3: q3, Unit: d.Unit}
			}
		}
	}
	return sum
}

// LoadSummary reads a Summary, or a single run's Report as a summary of
// one run.
func LoadSummary(path string) (*Summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Workloads != nil {
		var s Summary
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" {
		return nil, fmt.Errorf("%s: neither a summary nor a run report", path)
	}
	return Summarise([]*Report{&r}), nil
}

// Compare prints one row per (workload, end-to-end metric): both
// medians, b as a multiple of a, the bound, and a verdict — ok, worse
// (b's median is worse than a's by more than the bound) or unresolved
// (either side's quartile spread is wider than the bound, so the runs
// cannot tell). It returns how many rows are worse.
func Compare(w io.Writer, a, b *Summary) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tb/a\tbound\tspread a\tspread b\tverdict\t")
	worse := 0
	for _, spec := range Specs {
		for _, d := range endToEnd {
			qa, okA := a.Workloads[spec.Name][d.Name]
			qb, okB := b.Workloads[spec.Name][d.Name]
			if !okA || !okB || qa.Median == 0 {
				continue
			}
			loss := (qb.Median - qa.Median) / qa.Median
			if d.Better == "higher" {
				loss = -loss
			}
			spreadA := (qa.Q3 - qa.Q1) / qa.Median
			spreadB := (qb.Q3 - qb.Q1) / qb.Median
			verdict := "ok"
			switch {
			case spreadA > d.Bound || spreadB > d.Bound:
				verdict = "unresolved"
			case loss > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3fx of %.4g\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				spec.Name, d.Name, qa.Median, qa.Unit, qb.Median, qb.Unit, qb.Median/qa.Median, qa.Median,
				d.Bound*100, spreadA*100, spreadB*100, verdict)
		}
	}
	tw.Flush()
	return worse
}
