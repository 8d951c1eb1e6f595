package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchModel is the S-VRF serving shape: 20 x 3 input, BiLSTM(32), 12
// outputs — the configuration every vessel actor runs per report.
func benchModel(b *testing.B) (*SeqRegressor, [][]float64) {
	b.Helper()
	m, err := NewSeqRegressor(Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	seq := make([][]float64, 20)
	for i := range seq {
		seq[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
	}
	return m, seq
}

// BenchmarkPredict compares the reference (training) forward pass with
// the compiled fused-gate path on the S-VRF serving shape. Run with
// -benchmem: the headline is both ns/op and allocs/op.
func BenchmarkPredict(b *testing.B) {
	m, seq := benchModel(b)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Predict(seq)
		}
	})
	c := m.Compile()
	b.Run("compiled", func(b *testing.B) {
		s := c.GetScratch()
		defer c.PutScratch(s)
		dst := make([]float64, c.cfg.OutputDim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.PredictInto(dst, seq, s)
		}
	})
	b.Run("compiled-pooled", func(b *testing.B) {
		// The pool round-trip variant: what a caller pays when it does
		// not hold a scratch across calls.
		dst := make([]float64, c.cfg.OutputDim)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.PredictInto(dst, seq, nil)
		}
	})
}

// BenchmarkPredictBatch sweeps the batch size on the compiled bulk
// path (single worker, to read the per-sequence cost; the parallel
// speedup is machine-dependent).
func BenchmarkPredictBatch(b *testing.B) {
	m, seq := benchModel(b)
	c := m.Compile()
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			seqs := make([][][]float64, size)
			for i := range seqs {
				seqs[i] = seq
			}
			var dst [][]float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = c.PredictBatch(dst, seqs, 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/seq")
		})
	}
}
