// Package metrics provides the evaluation and observability primitives
// the paper's experiments report: displacement errors (Table 1),
// detection confusion matrices (Table 2), and the striped counters and
// latency recorders of the live pipeline.
package metrics

import (
	"fmt"
	"time"
)

// DisplacementError accumulates average displacement error (ADE) per
// prediction horizon, in meters.
type DisplacementError struct {
	sums   []float64
	counts []int
}

// NewDisplacementError creates an accumulator for the given number of
// horizons.
func NewDisplacementError(horizons int) *DisplacementError {
	return &DisplacementError{sums: make([]float64, horizons), counts: make([]int, horizons)}
}

// Add records the error of one prediction at one horizon index.
func (d *DisplacementError) Add(horizon int, errMeters float64) {
	d.sums[horizon] += errMeters
	d.counts[horizon]++
}

// ADE returns the mean error at a horizon.
func (d *DisplacementError) ADE(horizon int) float64 {
	if d.counts[horizon] == 0 {
		return 0
	}
	return d.sums[horizon] / float64(d.counts[horizon])
}

// MeanADE returns the mean over all horizons (the paper's "Mean ADE").
func (d *DisplacementError) MeanADE() float64 {
	sum, n := 0.0, 0
	for h := range d.sums {
		if d.counts[h] > 0 {
			sum += d.ADE(h)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Horizons returns the number of horizons tracked.
func (d *DisplacementError) Horizons() int { return len(d.sums) }

// Count returns the samples recorded at a horizon.
func (d *DisplacementError) Count(horizon int) int { return d.counts[horizon] }

// Confusion is a detection confusion matrix. TN is meaningful only when
// the evaluation enumerates non-event candidates explicitly.
type Confusion struct {
	TP, FP, FN, TN int
}

// Precision returns TP / (TP + FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN) / total. With TN = 0 (no enumerated
// negatives) this degenerates to TP/(TP+FP+FN), close to how Table 2's
// accuracy column behaves.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.FN + c.TN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d P=%.2f R=%.2f F1=%.2f",
		c.TP, c.FP, c.FN, c.TN, c.Precision(), c.Recall(), c.F1())
}

// Snapshot summarises the latencies a ShardedLatencyRecorder recorded.
// Sum is the exact total of every recorded duration, so the mean over
// any span between two snapshots is ΔSum/ΔCount.
type Snapshot struct {
	Count                    int64
	Sum                      time.Duration
	Mean, P50, P95, P99, Max time.Duration
}
