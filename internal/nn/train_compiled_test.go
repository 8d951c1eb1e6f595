package nn

import (
	"math"
	"math/rand"
	"testing"
)

// trainConfigs is the shape sweep the compiled-training contracts run
// over: both directions, scalar-fallback hidden sizes (not a multiple
// of 4) and vector-path sizes, including the production S-VRF shape.
func trainConfigs() []Config {
	return []Config{
		{InputDim: 2, Hidden: 5, OutputDim: 3, Seed: 42},                       // scalar path
		{InputDim: 2, Hidden: 5, OutputDim: 3, Bidirectional: true, Seed: 42},  // scalar path
		{InputDim: 3, Hidden: 8, OutputDim: 6, Bidirectional: true, Seed: 7},   // vector path
		{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1}, // S-VRF serving shape
	}
}

// refGrads runs the reference gradSample over the samples and returns a
// copy of every parameter block's accumulated gradient.
func refGrads(m *SeqRegressor, samples []Sample) ([][]float64, float64) {
	m.zeroGrad()
	ref := newRefTrain(m)
	loss := 0.0
	for _, s := range samples {
		loss += ref.gradSample(s)
	}
	out := make([][]float64, len(m.matrices()))
	for i, mat := range m.matrices() {
		out[i] = append([]float64(nil), mat.g...)
	}
	return out, loss
}

// TestTrainCompiledGradientParity is the core contract of the compiled
// trainer: for every parameter block, the fused BPTT gradient must
// match the reference BPTT gradient to 1e-8 per element. The only
// difference between the paths is the ~2 ulp fast activations in the
// compiled forward (and FMA/lane-reduction rounding in the kernels),
// which lands many orders of magnitude inside the bound.
func TestTrainCompiledGradientParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for ci, cfg := range trainConfigs() {
		m, err := NewSeqRegressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two reference steps move the weights off initialisation so the
		// contract covers trained-scale parameters.
		warm := randSamples(cfg, 8, rng)
		m.clipNorm = 0
		ref := newRefTrain(m)
		ref.TrainBatch(warm, 1e-2, 1)
		ref.TrainBatch(warm, 1e-2, 1)

		samples := randSamples(cfg, 6, rng)
		want, refLoss := refGrads(m, samples)

		tc := m.CompileTrain()
		tc.fw.pack()
		if tc.bw != nil {
			tc.bw.pack()
		}
		tc.ensureWorkers(1)
		w := tc.workers[0]
		gotLoss := 0.0
		for _, s := range samples {
			gotLoss += tc.gradSample(w, s)
		}
		m.zeroGrad()
		tc.scatter(w)

		if diff := math.Abs(gotLoss - refLoss); diff > 1e-8*(1+math.Abs(refLoss)) {
			t.Errorf("config %d: loss %v (compiled) vs %v (reference)", ci, gotLoss, refLoss)
		}
		for bi, mat := range m.matrices() {
			for idx := range mat.g {
				a, b := mat.g[idx], want[bi][idx]
				scale := math.Max(1, math.Abs(a)+math.Abs(b))
				if diff := math.Abs(a - b); diff/scale > 1e-8 || math.IsNaN(a) {
					t.Fatalf("config %d block %d idx %d: compiled grad %v, reference %v (diff %g)",
						ci, bi, idx, a, b, diff)
				}
			}
		}
	}
}

// TestTrainCompiledNumericGradient checks the fused analytic gradients
// against central finite differences of the compiled forward loss — the
// same self-consistency check TestGradientCheck runs on the reference
// path, so the compiled trainer is verified in its own right, not just
// relative to the oracle.
func TestTrainCompiledNumericGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, bidir := range []bool{false, true} {
		cfg := Config{InputDim: 2, Hidden: 8, OutputDim: 3, Bidirectional: bidir, Seed: 23}
		m, err := NewSeqRegressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := randomSample(rng, 6, cfg.InputDim, cfg.OutputDim)
		tc := m.CompileTrain()
		tc.ensureWorkers(1)
		w := tc.workers[0]

		// compiledLoss re-packs so weight perturbations are visible to
		// the fused blocks.
		compiledLoss := func() float64 {
			tc.fw.pack()
			if tc.bw != nil {
				tc.bw.pack()
			}
			w.zero()
			return tc.gradSample(w, s)
		}

		compiledLoss() // analytic gradients at the base point
		m.zeroGrad()
		tc.scatter(w)

		const eps = 1e-6
		for bi, mat := range m.matrices() {
			for _, idx := range []int{0, len(mat.W) / 2, len(mat.W) - 1} {
				analytic := mat.g[idx]
				orig := mat.W[idx]
				mat.W[idx] = orig + eps
				lp := compiledLoss()
				mat.W[idx] = orig - eps
				lm := compiledLoss()
				mat.W[idx] = orig
				numeric := (lp - lm) / (2 * eps)
				diff := math.Abs(numeric - analytic)
				scale := math.Max(1e-4, math.Abs(numeric)+math.Abs(analytic))
				if diff/scale > 1e-4 {
					t.Errorf("bidir=%v block %d idx %d: analytic %.8f numeric %.8f",
						bidir, bi, idx, analytic, numeric)
				}
			}
		}
		// Restore the fused blocks to the unperturbed weights for any
		// later use of tc in this process.
		tc.fw.pack()
		if tc.bw != nil {
			tc.bw.pack()
		}
	}
}

// TestTrainCompiledLossCurve trains two identically seeded models — one
// through the reference path, one through the compiled path — and
// requires the per-epoch loss curves to agree within a tight relative
// tolerance. The curves cannot be bit-identical (the compiled forward
// uses the fast activations), but the drift stays far below anything
// that changes training behaviour. Clipping is enabled so the clip
// branch of applyStep is exercised identically on both paths.
func TestTrainCompiledLossCurve(t *testing.T) {
	for _, cfg := range trainConfigs() {
		rng := rand.New(rand.NewSource(37))
		data := make([]Sample, 48)
		for i := range data {
			data[i] = randomSample(rng, 6, cfg.InputDim, cfg.OutputDim)
		}
		var refCurve, fastCurve []float64
		opt := FitOptions{Epochs: 5, BatchSize: 16, LR: 0.01, Workers: 1, Seed: 19, ClipNorm: 1.0}

		ref, _ := NewSeqRegressor(cfg)
		opt.Progress = func(_ int, loss float64) bool {
			refCurve = append(refCurve, loss)
			return true
		}
		newRefTrain(ref).Fit(data, opt)

		fast, _ := NewSeqRegressor(cfg)
		opt.Progress = func(_ int, loss float64) bool {
			fastCurve = append(fastCurve, loss)
			return true
		}
		fast.CompileTrain().Fit(data, opt)

		if len(refCurve) != len(fastCurve) {
			t.Fatalf("curve lengths differ: %d vs %d", len(refCurve), len(fastCurve))
		}
		for e := range refCurve {
			rel := math.Abs(refCurve[e]-fastCurve[e]) / math.Max(1e-12, math.Abs(refCurve[e]))
			if rel > 1e-4 || math.IsNaN(fastCurve[e]) {
				t.Fatalf("hidden=%d bidir=%v epoch %d: reference loss %v, compiled %v (rel %g)",
					cfg.Hidden, cfg.Bidirectional, e, refCurve[e], fastCurve[e], rel)
			}
		}
		// The trained models must agree on predictions to the same order.
		probe := randomSample(rng, 8, cfg.InputDim, cfg.OutputDim)
		yr, yf := ref.Predict(probe.Seq), fast.Predict(probe.Seq)
		for o := range yr {
			if diff := math.Abs(yr[o] - yf[o]); diff > 1e-4*(1+math.Abs(yr[o])) {
				t.Fatalf("trained prediction diverged at output %d: %v vs %v", o, yr[o], yf[o])
			}
		}
	}
}

// TestTrainCompiledMultiWorkerDeterminism: for a fixed worker count,
// compiled training is exactly reproducible — strided sample
// assignment plus worker-ordered merge leaves no scheduling
// nondeterminism in the result. Run with -race in CI.
func TestTrainCompiledMultiWorkerDeterminism(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 4, Bidirectional: true, Seed: 29}
	rng := rand.New(rand.NewSource(41))
	data := make([]Sample, 64)
	for i := range data {
		data[i] = randomSample(rng, 5, cfg.InputDim, cfg.OutputDim)
	}
	opt := FitOptions{Epochs: 3, BatchSize: 16, LR: 0.01, Workers: 3, Seed: 43, ClipNorm: 1.0}
	run := func() (*SeqRegressor, float64) {
		m, _ := NewSeqRegressor(cfg)
		loss := m.CompileTrain().Fit(data, opt)
		return m, loss
	}
	a, la := run()
	b, lb := run()
	if la != lb {
		t.Fatalf("multi-worker losses diverged: %v vs %v", la, lb)
	}
	probe := data[0]
	ya, yb := a.Predict(probe.Seq), b.Predict(probe.Seq)
	for o := range ya {
		if ya[o] != yb[o] {
			t.Fatalf("multi-worker weights diverged at output %d: %v vs %v", o, ya[o], yb[o])
		}
	}
}

// TestTrainBatchReferencePersistentReplicas: the reference multi-worker
// path must also be reproducible with the persistent replicas (clone
// once, sync per batch), and must keep learning.
func TestTrainBatchReferencePersistentReplicas(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 6, OutputDim: 3, Bidirectional: true, Seed: 47}
	rng := rand.New(rand.NewSource(53))
	data := make([]Sample, 48)
	for i := range data {
		data[i] = randomSample(rng, 5, cfg.InputDim, cfg.OutputDim)
	}
	opt := FitOptions{Epochs: 3, BatchSize: 16, LR: 0.01, Workers: 3, Seed: 59}
	run := func() (*refTrain, float64) {
		m, _ := NewSeqRegressor(cfg)
		ref := newRefTrain(m)
		loss := ref.Fit(data, opt)
		return ref, loss
	}
	a, la := run()
	b, lb := run()
	if la != lb {
		t.Fatalf("reference multi-worker losses diverged: %v vs %v", la, lb)
	}
	ya, yb := a.m.Predict(data[0].Seq), b.m.Predict(data[0].Seq)
	for o := range ya {
		if ya[o] != yb[o] {
			t.Fatal("reference multi-worker weights diverged across runs")
		}
	}
	// The same replica set must survive a second Fit on the same model
	// (replicas re-sync, not re-clone) and still track the master.
	if len(a.replicas) != 3 {
		t.Fatalf("expected 3 persistent replicas, have %d", len(a.replicas))
	}
	before := a.replicas[0]
	a.Fit(data, opt)
	if a.replicas[0] != before {
		t.Fatal("replicas were re-allocated across Fit calls")
	}
}

// TestTrainBatchAllocsBounded is the satellite alloc gate: once warmed
// up, the reference TrainBatch must run within a small constant number
// of allocations per step — no per-sample scratch, no per-batch replica
// cloning.
func TestTrainBatchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cfg := Config{InputDim: 3, Hidden: 16, OutputDim: 6, Bidirectional: true, Seed: 61}
	rng := rand.New(rand.NewSource(67))
	batch := make([]Sample, 16)
	for i := range batch {
		batch[i] = randomSample(rng, 12, cfg.InputDim, cfg.OutputDim)
	}

	m, _ := NewSeqRegressor(cfg)
	ref := newRefTrain(m)
	ref.TrainBatch(batch, 1e-3, 1) // warm the scratch arenas
	if avg := testing.AllocsPerRun(20, func() {
		ref.TrainBatch(batch, 1e-3, 1)
	}); avg > 2 {
		t.Fatalf("single-worker TrainBatch allocates %v per step, want <= 2", avg)
	}

	m2, _ := NewSeqRegressor(cfg)
	ref2 := newRefTrain(m2)
	ref2.TrainBatch(batch, 1e-3, 2) // warm replicas
	// The multi-worker path pays per-goroutine spawn costs but must not
	// re-clone replicas or re-allocate worker scratch.
	if avg := testing.AllocsPerRun(20, func() {
		ref2.TrainBatch(batch, 1e-3, 2)
	}); avg > 16 {
		t.Fatalf("two-worker TrainBatch allocates %v per step, want <= 16", avg)
	}
}

// TestTrainCompiledAllocsBounded: the compiled TrainBatch has the same
// steady-state bound.
func TestTrainCompiledAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	cfg := Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 71}
	rng := rand.New(rand.NewSource(73))
	batch := make([]Sample, 16)
	for i := range batch {
		batch[i] = randomSample(rng, 12, cfg.InputDim, cfg.OutputDim)
	}
	m, _ := NewSeqRegressor(cfg)
	tc := m.CompileTrain()
	tc.TrainBatch(batch, 1e-3, 1)
	if avg := testing.AllocsPerRun(20, func() {
		tc.TrainBatch(batch, 1e-3, 1)
	}); avg > 2 {
		t.Fatalf("compiled TrainBatch allocates %v per step, want <= 2", avg)
	}
}

// TestTrainCompiledEdgeShapes exercises the shapes that take the scalar
// fallback or trivial sequences: hidden not a multiple of 4, length-1
// sequences, empty batches, and an empty sequence inside a batch.
func TestTrainCompiledEdgeShapes(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 3, OutputDim: 2, Bidirectional: true, Seed: 79}
	m, _ := NewSeqRegressor(cfg)
	tc := m.CompileTrain()
	if got := tc.TrainBatch(nil, 1e-3, 2); got != 0 {
		t.Fatalf("empty batch loss = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(83))
	batch := []Sample{
		randomSample(rng, 1, 2, 2),
		{Seq: nil, Target: []float64{0, 0}},
		randomSample(rng, 7, 2, 2),
	}
	loss := tc.TrainBatch(batch, 1e-3, 2)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("edge-shape batch produced non-finite loss %v", loss)
	}
	// And training still learns through the compiled path on the scalar
	// fallback shape.
	data := make([]Sample, 64)
	for i := range data {
		s := randomSample(rng, 5, 2, 2)
		s.Target[0] = s.Seq[0][0]
		s.Target[1] = s.Seq[len(s.Seq)-1][1]
		data[i] = s
	}
	before := m.MSE(data)
	tc.Fit(data, FitOptions{Epochs: 40, BatchSize: 16, LR: 0.02, Workers: 1, Seed: 89})
	if after := m.MSE(data); after > before*0.3 {
		t.Fatalf("compiled training on scalar path did not learn: %v -> %v", before, after)
	}
}

// BenchmarkTrainBatchPaths compares one optimisation step on the
// serving-shape model across reference/compiled trainers at one and two
// workers, in ns per sample.
func BenchmarkTrainBatchPaths(b *testing.B) {
	cfg := Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1}
	rng := rand.New(rand.NewSource(20))
	batch := make([]Sample, 32)
	for i := range batch {
		batch[i] = randomSample(rng, 20, 3, 12)
	}
	for _, bc := range []struct {
		name     string
		compiled bool
		workers  int
	}{
		{"Reference/workers=1", false, 1},
		{"Reference/workers=2", false, 2},
		{"Compiled/workers=1", true, 1},
		{"Compiled/workers=2", true, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, _ := NewSeqRegressor(cfg)
			step := newRefTrain(m).TrainBatch
			if bc.compiled {
				step = m.CompileTrain().TrainBatch
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(batch, 1e-3, bc.workers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
		})
	}
}
