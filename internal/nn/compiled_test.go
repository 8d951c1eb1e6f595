package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randSamples builds a small random training set for a config, used to
// move every parity model off its initialisation before compiling.
func randSamples(cfg Config, n int, rng *rand.Rand) []Sample {
	out := make([]Sample, n)
	for i := range out {
		seq := make([][]float64, 4+rng.Intn(8))
		for t := range seq {
			row := make([]float64, cfg.InputDim)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
			seq[t] = row
		}
		tgt := make([]float64, cfg.OutputDim)
		for k := range tgt {
			tgt[k] = rng.NormFloat64()
		}
		out[i] = Sample{Seq: seq, Target: tgt}
	}
	return out
}

// TestCompiledParity is the oracle check the fast path lives under: for
// randomized trained models — both LSTM and BiLSTM — PredictInto must
// match the reference Predict within 1e-12 on every output. The fused
// path accumulates in the reference order; the only drift comes from
// the ~2 ulp fast activations (and FMA rounding on v3/arm64 builds),
// which lands around 1e-14 worst case — two orders inside the
// contract. Every eighth model uses the full S-VRF serving shape so
// the tolerance is exercised at production width, not just toy dims.
func TestCompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const models = 120
	for i := 0; i < models; i++ {
		cfg := Config{
			InputDim:      1 + rng.Intn(4),
			Hidden:        1 + rng.Intn(12),
			OutputDim:     1 + rng.Intn(8),
			Bidirectional: i%2 == 0,
			Seed:          int64(i + 1),
		}
		if i%8 == 0 {
			cfg = Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: i%16 == 0, Seed: int64(i + 1)}
		}
		m, err := NewSeqRegressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two optimisation steps push the weights off their seeded
		// initialisation so the parity claim covers trained models.
		data := randSamples(cfg, 8, rng)
		m.clipNorm = 0
		ref := newRefTrain(m)
		ref.TrainBatch(data, 1e-2, 1)
		ref.TrainBatch(data, 1e-2, 1)

		c := m.Compile()
		s := c.GetScratch()
		dst := make([]float64, cfg.OutputDim)
		for trial := 0; trial < 4; trial++ {
			seq := randSamples(cfg, 1, rng)[0].Seq
			if trial == 3 {
				seq = nil // the empty-history edge must agree too
			}
			want := m.Predict(seq)
			got := c.PredictInto(dst, seq, s)
			for o := range want {
				if diff := math.Abs(got[o] - want[o]); diff > 1e-12 || math.IsNaN(got[o]) {
					t.Fatalf("model %d (bidir=%v) trial %d output %d: compiled %v reference %v (diff %g)",
						i, cfg.Bidirectional, trial, o, got[o], want[o], diff)
				}
			}
		}
		c.PutScratch(s)
	}
}

// TestCompiledVariants covers the scratch/dst permutations PredictInto
// accepts: nil scratch, nil dst, both nil, and the pooled Predict. All
// variants must agree bit-for-bit with each other (they run the same
// kernel), and the whole family must sit within the 1e-12 contract of
// the reference output.
func TestCompiledVariants(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 6, Bidirectional: true, Seed: 3}
	m, err := NewSeqRegressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	seq := randSamples(cfg, 1, rng)[0].Seq
	ref := m.Predict(seq)
	c := m.Compile()
	want := c.Predict(seq)
	for o := range want {
		if diff := math.Abs(want[o] - ref[o]); diff > 1e-12 {
			t.Fatalf("output %d: compiled %v vs reference %v (diff %g)", o, want[o], ref[o], diff)
		}
	}

	check := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d outputs, want %d", name, len(got), len(want))
		}
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("%s: output %d = %v, want %v", name, o, got[o], want[o])
			}
		}
	}
	check("nil-scratch", c.PredictInto(make([]float64, cfg.OutputDim), seq, nil))
	check("nil-both", c.PredictInto(nil, seq, nil))
	s := c.GetScratch()
	check("nil-dst", c.PredictInto(nil, seq, s))
	if got := c.PredictInto(nil, seq, s); &got[0] != &s.out[0] {
		t.Fatal("nil dst with scratch should fill the scratch's own buffer")
	}
	c.PutScratch(s)
}

// TestCompiledImmutable verifies the snapshot semantics: training the
// source model after Compile must not change the compiled outputs.
func TestCompiledImmutable(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 6, OutputDim: 4, Bidirectional: true, Seed: 5}
	m, _ := NewSeqRegressor(cfg)
	rng := rand.New(rand.NewSource(11))
	seq := randSamples(cfg, 1, rng)[0].Seq
	c := m.Compile()
	before := append([]float64(nil), c.Predict(seq)...)
	m.CompileTrain().TrainBatch(randSamples(cfg, 8, rng), 1e-2, 1)
	after := c.Predict(seq)
	for o := range before {
		if before[o] != after[o] {
			t.Fatalf("compiled output changed after source training: %v -> %v", before[o], after[o])
		}
	}
	// And a fresh compile picks the new weights up.
	if c2 := m.Compile(); c2.Predict(seq)[0] == before[0] {
		t.Fatal("recompile did not pick up trained weights")
	}
}

// TestPredictBatchMatches checks the batch path against per-sequence
// compiled prediction (bit-exact: same kernel) for every worker
// setting, including dst reuse.
func TestPredictBatchMatches(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 6, Bidirectional: true, Seed: 13}
	m, _ := NewSeqRegressor(cfg)
	c := m.Compile()
	rng := rand.New(rand.NewSource(17))
	seqs := make([][][]float64, 37)
	want := make([][]float64, len(seqs))
	for i := range seqs {
		seqs[i] = randSamples(cfg, 1, rng)[0].Seq
		want[i] = c.Predict(seqs[i])
	}
	var dst [][]float64
	for _, workers := range []int{0, 1, 3, 16} {
		dst = c.PredictBatch(dst, seqs, workers)
		if len(dst) != len(seqs) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(dst), len(seqs))
		}
		for i := range want {
			for o := range want[i] {
				if dst[i][o] != want[i][o] {
					t.Fatalf("workers=%d seq %d output %d: %v != %v", workers, i, o, dst[i][o], want[i][o])
				}
			}
		}
	}
}

// TestPredictIntoZeroAlloc is the allocation-regression gate of the
// tentpole: the steady-state fast path must not allocate at all.
func TestPredictIntoZeroAlloc(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1}
	m, _ := NewSeqRegressor(cfg)
	c := m.Compile()
	rng := rand.New(rand.NewSource(19))
	seq := make([][]float64, 20)
	for t := range seq {
		seq[t] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
	}
	s := c.GetScratch()
	defer c.PutScratch(s)
	dst := make([]float64, cfg.OutputDim)
	if avg := testing.AllocsPerRun(200, func() {
		c.PredictInto(dst, seq, s)
	}); avg != 0 {
		t.Fatalf("PredictInto allocates %v per run, want 0", avg)
	}
}
