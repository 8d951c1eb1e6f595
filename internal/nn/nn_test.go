package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func smallConfig(bidir bool) Config {
	return Config{InputDim: 2, Hidden: 5, OutputDim: 3, Bidirectional: bidir, Seed: 42}
}

func randomSample(rng *rand.Rand, steps, in, out int) Sample {
	seq := make([][]float64, steps)
	for t := range seq {
		seq[t] = make([]float64, in)
		for k := range seq[t] {
			seq[t][k] = rng.NormFloat64()
		}
	}
	target := make([]float64, out)
	for o := range target {
		target[o] = rng.NormFloat64()
	}
	return Sample{Seq: seq, Target: target}
}

// sampleLoss computes the MSE loss of one sample without touching
// gradients.
func sampleLoss(m *SeqRegressor, s Sample) float64 {
	y := m.Predict(s.Seq)
	loss := 0.0
	for o := range y {
		d := y[o] - s.Target[o]
		loss += d * d
	}
	return loss / float64(len(y))
}

// TestGradientCheck verifies the reference trainer's analytic BPTT
// gradients against central finite differences for every parameter
// block. It is what makes the reference a trustworthy oracle for
// TestTrainCompiledGradientParity.
func TestGradientCheck(t *testing.T) {
	for _, bidir := range []bool{false, true} {
		m, err := NewSeqRegressor(smallConfig(bidir))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		s := randomSample(rng, 6, 2, 3)

		m.zeroGrad()
		newRefTrain(m).gradSample(s)

		const eps = 1e-6
		for bi, mat := range m.matrices() {
			// Check a spread of indices in each block.
			for _, idx := range []int{0, len(mat.W) / 2, len(mat.W) - 1} {
				orig := mat.W[idx]
				mat.W[idx] = orig + eps
				lp := sampleLoss(m, s)
				mat.W[idx] = orig - eps
				lm := sampleLoss(m, s)
				mat.W[idx] = orig
				numeric := (lp - lm) / (2 * eps)
				analytic := mat.g[idx]
				diff := math.Abs(numeric - analytic)
				scale := math.Max(1e-4, math.Abs(numeric)+math.Abs(analytic))
				if diff/scale > 1e-4 {
					t.Errorf("bidir=%v block %d idx %d: analytic %.8f numeric %.8f",
						bidir, bi, idx, analytic, numeric)
				}
			}
		}
	}
}

func TestLearnsLinearMap(t *testing.T) {
	// Target: sum of the sequence's first feature, a task both LSTM and
	// BiLSTM must learn to near-zero loss.
	m, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 8, OutputDim: 1, Bidirectional: true, Seed: 7})
	rng := rand.New(rand.NewSource(2))
	data := make([]Sample, 256)
	for i := range data {
		s := randomSample(rng, 5, 2, 1)
		sum := 0.0
		for _, x := range s.Seq {
			sum += x[0]
		}
		s.Target[0] = sum / 5
		data[i] = s
	}
	before := m.MSE(data)
	m.CompileTrain().Fit(data, FitOptions{Epochs: 60, BatchSize: 32, LR: 0.01, Workers: 1, Seed: 3})
	after := m.MSE(data)
	if after > before*0.1 {
		t.Fatalf("did not learn: before %.5f after %.5f", before, after)
	}
}

func TestBiLSTMUsesFutureContext(t *testing.T) {
	// Target depends only on the FIRST element of the sequence. The
	// forward LSTM must carry it across all steps; the backward LSTM
	// sees it last. BiLSTM should fit this strictly better than a
	// forward-only LSTM of the same budget within few epochs.
	rng := rand.New(rand.NewSource(4))
	data := make([]Sample, 200)
	for i := range data {
		s := randomSample(rng, 12, 2, 1)
		s.Target[0] = s.Seq[0][0]
		data[i] = s
	}
	uni, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 6, OutputDim: 1, Seed: 9})
	bi, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 6, OutputDim: 1, Bidirectional: true, Seed: 9})
	opt := FitOptions{Epochs: 15, BatchSize: 32, LR: 0.02, Workers: 1, Seed: 5}
	uni.CompileTrain().Fit(data, opt)
	bi.CompileTrain().Fit(data, opt)
	mu, mb := uni.MSE(data), bi.MSE(data)
	if mb >= mu {
		t.Fatalf("BiLSTM (%.5f) not better than LSTM (%.5f) on future-context task", mb, mu)
	}
}

func TestL1RegularisationShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]Sample, 64)
	for i := range data {
		data[i] = randomSample(rng, 5, 2, 3)
	}
	plain, _ := NewSeqRegressor(smallConfig(true))
	reg, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 5, OutputDim: 3, Bidirectional: true, L1: 0.01, Seed: 42})
	opt := FitOptions{Epochs: 20, BatchSize: 16, LR: 0.01, Workers: 1, Seed: 8}
	plain.CompileTrain().Fit(data, opt)
	reg.CompileTrain().Fit(data, opt)
	if reg.L1Norm() >= plain.L1Norm() {
		t.Fatalf("L1 norm with reg %.3f >= without %.3f", reg.L1Norm(), plain.L1Norm())
	}
}

func TestDeterministicInitialisation(t *testing.T) {
	a, _ := NewSeqRegressor(smallConfig(true))
	b, _ := NewSeqRegressor(smallConfig(true))
	rng := rand.New(rand.NewSource(3))
	s := randomSample(rng, 4, 2, 3)
	ya, yb := a.Predict(s.Seq), b.Predict(s.Seq)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("same seed diverged: %v vs %v", ya, yb)
		}
	}
	c, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 5, OutputDim: 3, Bidirectional: true, Seed: 43})
	yc := c.Predict(s.Seq)
	same := true
	for i := range ya {
		if ya[i] != yc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outputs")
	}
}

func TestTrainingDeterministicSingleWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]Sample, 64)
	for i := range data {
		data[i] = randomSample(rng, 4, 2, 3)
	}
	opt := FitOptions{Epochs: 3, BatchSize: 16, LR: 0.01, Workers: 1, Seed: 17}
	a, _ := NewSeqRegressor(smallConfig(true))
	b, _ := NewSeqRegressor(smallConfig(true))
	la := a.CompileTrain().Fit(data, opt)
	lb := b.CompileTrain().Fit(data, opt)
	if la != lb {
		t.Fatalf("losses diverged: %v vs %v", la, lb)
	}
	s := data[0]
	ya, yb := a.Predict(s.Seq), b.Predict(s.Seq)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("weights diverged under identical deterministic training")
		}
	}
}

func TestParallelWorkersLearnToo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := make([]Sample, 128)
	for i := range data {
		s := randomSample(rng, 5, 2, 1)
		s.Target[0] = (s.Seq[2][0] + s.Seq[2][1]) / 2
		data[i] = s
	}
	m, _ := NewSeqRegressor(Config{InputDim: 2, Hidden: 8, OutputDim: 1, Bidirectional: true, Seed: 21})
	before := m.MSE(data)
	m.CompileTrain().Fit(data, FitOptions{Epochs: 30, BatchSize: 32, LR: 0.01, Workers: 4, Seed: 13})
	after := m.MSE(data)
	if after > before*0.3 {
		t.Fatalf("parallel training did not learn: before %.5f after %.5f", before, after)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _ := NewSeqRegressor(smallConfig(true))
	rng := rand.New(rand.NewSource(14))
	data := make([]Sample, 32)
	for i := range data {
		data[i] = randomSample(rng, 4, 2, 3)
	}
	m.CompileTrain().Fit(data, FitOptions{Epochs: 2, BatchSize: 8, LR: 0.01, Workers: 1, Seed: 1})

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := data[0]
	y1, y2 := m.Predict(s.Seq), loaded.Predict(s.Seq)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded model differs: %v vs %v", y1, y2)
		}
	}
	if loaded.cfg != m.cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.cfg, m.cfg)
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, _ := NewSeqRegressor(smallConfig(false))
	path := t.TempDir() + "/model.gob"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	s := randomSample(rng, 4, 2, 3)
	y1, y2 := m.Predict(s.Seq), loaded.Predict(s.Seq)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("file round-trip changed the model")
		}
	}
}

func TestConcurrentPredict(t *testing.T) {
	// The paper mounts one S-VRF instance shared by all vessel actors;
	// concurrent Predict must be safe (run with -race).
	m, _ := NewSeqRegressor(smallConfig(true))
	rng := rand.New(rand.NewSource(16))
	samples := make([]Sample, 16)
	for i := range samples {
		samples[i] = randomSample(rng, 6, 2, 3)
	}
	want := make([][]float64, len(samples))
	for i, s := range samples {
		want[i] = m.Predict(s.Seq)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range samples {
				got := m.Predict(s.Seq)
				for k := range got {
					if got[k] != want[i][k] {
						panic("concurrent predict diverged")
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestVariableSequenceLengths(t *testing.T) {
	m, _ := NewSeqRegressor(smallConfig(true))
	rng := rand.New(rand.NewSource(17))
	for _, steps := range []int{1, 3, 20, 50} {
		s := randomSample(rng, steps, 2, 3)
		y := m.Predict(s.Seq)
		if len(y) != 3 {
			t.Fatalf("steps=%d: output dim %d", steps, len(y))
		}
		for _, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("steps=%d: non-finite output %v", steps, y)
			}
		}
	}
	if y := m.Predict(nil); len(y) != 3 {
		t.Fatalf("empty sequence output dim %d", len(y))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{InputDim: 0, Hidden: 4, OutputDim: 1},
		{InputDim: 2, Hidden: 0, OutputDim: 1},
		{InputDim: 2, Hidden: 4, OutputDim: 0},
	}
	for _, cfg := range bad {
		if _, err := NewSeqRegressor(cfg); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
}

func TestProgressCallbackEarlyStop(t *testing.T) {
	m, _ := NewSeqRegressor(smallConfig(false))
	rng := rand.New(rand.NewSource(18))
	data := make([]Sample, 32)
	for i := range data {
		data[i] = randomSample(rng, 4, 2, 3)
	}
	calls := 0
	m.CompileTrain().Fit(data, FitOptions{Epochs: 50, BatchSize: 8, LR: 0.01, Workers: 1,
		Progress: func(epoch int, loss float64) bool {
			calls++
			return epoch < 2 // stop after the third epoch
		}})
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
}

func BenchmarkPredict20Steps(b *testing.B) {
	m, _ := NewSeqRegressor(Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1})
	rng := rand.New(rand.NewSource(19))
	s := randomSample(rng, 20, 3, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(s.Seq)
	}
}
