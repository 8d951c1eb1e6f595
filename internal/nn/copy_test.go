package nn

import (
	"testing"
)

func TestCopyWeightsFrom(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 4, Bidirectional: true, Seed: 1}
	src, err := NewSeqRegressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 2 // different init; seeds may differ across a copy
	dst, err := NewSeqRegressor(cfg2)
	if err != nil {
		t.Fatal(err)
	}

	seq := [][]float64{{0.1, 0.2, 0.3}, {0.2, -0.1, 0.4}, {-0.3, 0.2, 0.1}}
	if same(src.Predict(seq), dst.Predict(seq)) {
		t.Fatal("differently seeded networks must differ before the copy")
	}
	if err := dst.CopyWeightsFrom(src); err != nil {
		t.Fatal(err)
	}
	if !same(src.Predict(seq), dst.Predict(seq)) {
		t.Fatal("networks must agree exactly after CopyWeightsFrom")
	}

	// Copies must be deep: training the destination must not move the
	// source.
	before := src.Predict(seq)
	dst.CompileTrain().Fit([]Sample{{Seq: seq, Target: []float64{1, -1, 0.5, -0.5}}}, FitOptions{Epochs: 2, BatchSize: 1, LR: 0.01})
	if !same(before, src.Predict(seq)) {
		t.Fatal("training the copy moved the source: weights are shared")
	}

	bad, err := NewSeqRegressor(Config{InputDim: 3, Hidden: 4, OutputDim: 4, Bidirectional: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CopyWeightsFrom(bad); err == nil {
		t.Fatal("copy across shapes must fail")
	}
}

func same(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
