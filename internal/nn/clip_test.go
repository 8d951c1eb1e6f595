package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestGradientClippingBoundsUpdates(t *testing.T) {
	// Build a dataset with a pathological outlier target: unclipped
	// training takes a huge first step, clipped training stays tame.
	rng := rand.New(rand.NewSource(1))
	data := make([]Sample, 16)
	for i := range data {
		data[i] = randomSample(rng, 5, 2, 1)
		data[i].Target[0] = 1e6 // absurd target => exploding gradient
	}

	weightDelta := func(clip float64) float64 {
		m, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 4, OutputDim: 1, Seed: 3})
		before := m.L1Norm()
		m.CompileTrain().Fit(data, FitOptions{Epochs: 1, BatchSize: 16, LR: 0.1, Workers: 1, ClipNorm: clip})
		return math.Abs(m.L1Norm() - before)
	}

	unclipped := weightDelta(0)
	clipped := weightDelta(0.5)
	if clipped >= unclipped {
		t.Fatalf("clipping did not reduce the update: clipped %.3f vs unclipped %.3f",
			clipped, unclipped)
	}
	// Adam bounds per-parameter steps to ~lr regardless of magnitude,
	// so also verify the clipped gradient direction stayed finite.
	if math.IsNaN(clipped) || math.IsInf(clipped, 0) {
		t.Fatal("clipped update not finite")
	}
}

func TestClippingOffByDefaultIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]Sample, 32)
	for i := range data {
		data[i] = randomSample(rng, 5, 2, 3)
	}
	opt := FitOptions{Epochs: 2, BatchSize: 8, LR: 0.01, Workers: 1, Seed: 9}
	a, _ := NewSeqRegressor(smallConfig(true))
	b, _ := NewSeqRegressor(smallConfig(true))
	la := a.CompileTrain().Fit(data, opt)
	optHighClip := opt
	optHighClip.ClipNorm = 1e12 // never binds
	lb := b.CompileTrain().Fit(data, optHighClip)
	if la != lb {
		t.Fatalf("non-binding clip changed training: %v vs %v", la, lb)
	}
}
