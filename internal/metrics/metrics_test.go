package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDisplacementError(t *testing.T) {
	d := NewDisplacementError(3)
	d.Add(0, 100)
	d.Add(0, 200)
	d.Add(1, 300)
	d.Add(2, 500)
	if got := d.ADE(0); got != 150 {
		t.Fatalf("ADE(0) = %f", got)
	}
	if got := d.ADE(1); got != 300 {
		t.Fatalf("ADE(1) = %f", got)
	}
	if got := d.MeanADE(); math.Abs(got-(150+300+500)/3.0) > 1e-9 {
		t.Fatalf("MeanADE = %f", got)
	}
	if d.Count(0) != 2 || d.Count(2) != 1 {
		t.Fatal("counts wrong")
	}
	if d.Horizons() != 3 {
		t.Fatal("horizons wrong")
	}
}

func TestDisplacementErrorEmptyHorizon(t *testing.T) {
	d := NewDisplacementError(2)
	d.Add(0, 10)
	if d.ADE(1) != 0 {
		t.Fatal("empty horizon must be 0")
	}
	if d.MeanADE() != 10 {
		t.Fatal("mean must skip empty horizons")
	}
}

func TestConfusionMetrics(t *testing.T) {
	// The paper's Table 2, All Events / Linear Kinematic / 2 min row.
	c := Confusion{TP: 203, FP: 3, FN: 34}
	if p := c.Precision(); math.Abs(p-0.985) > 0.01 {
		t.Fatalf("precision %f", p)
	}
	if r := c.Recall(); math.Abs(r-0.857) > 0.01 {
		t.Fatalf("recall %f", r)
	}
	if f := c.F1(); math.Abs(f-0.916) > 0.01 {
		t.Fatalf("f1 %f", f)
	}
	if a := c.Accuracy(); math.Abs(a-float64(203)/240) > 0.01 {
		t.Fatalf("accuracy %f", a)
	}
}

func TestConfusionZeroSafe(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("zero matrix must yield zero metrics, not NaN")
	}
}

func TestConfusionPropertyBounds(t *testing.T) {
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		for _, v := range []float64{c.Precision(), c.Recall(), c.F1(), c.Accuracy()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLatencyObserve(b *testing.B) {
	l := NewShardedLatencyRecorder(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(uint64(i), time.Microsecond)
	}
}

// BenchmarkLatencySnapshot times one Snapshot of a full recorder: 1<<15
// log-normal observations, the most any pipeline recorder used to keep.
func BenchmarkLatencySnapshot(b *testing.B) {
	l := NewShardedLatencyRecorder(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<15; i++ {
		l.Observe(uint64(i), time.Duration(float64(200*time.Microsecond)*math.Exp(rng.NormFloat64())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = l.Snapshot()
	}
}
