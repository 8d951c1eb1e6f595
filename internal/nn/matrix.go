// Package nn is a small, dependency-free neural-network library built
// for the S-VRF model of the paper (Figure 3): one bidirectional LSTM
// layer followed by a fully connected layer, trained with Adam on mean
// squared error with L1 in-layer regularisation.
//
// The package favours clarity and determinism over raw speed: weights
// are float64, initialisation is seeded, and batch gradients can be
// computed on several goroutines and summed, which keeps training on a
// simulated dataset to tens of seconds while remaining exactly
// reproducible for a fixed seed and worker count.
//
// Inference through a trained model is safe for concurrent use: Predict
// allocates all per-call state, so a single model instance can be
// "mounted once in memory" and shared by every vessel actor, exactly as
// the paper describes.
package nn

import (
	"math"
	"math/rand"
)

// matrix is one trainable parameter block with its gradient and Adam
// moment estimates, stored row-major.
type matrix struct {
	Rows, Cols int
	W          []float64 // weights
	g          []float64 // gradient accumulator
	m, v       []float64 // Adam first/second moments
}

func newMatrix(rows, cols int, scale float64, rng *rand.Rand) *matrix {
	m := &matrix{
		Rows: rows, Cols: cols,
		W: make([]float64, rows*cols),
		g: make([]float64, rows*cols),
		m: make([]float64, rows*cols),
		v: make([]float64, rows*cols),
	}
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

func (m *matrix) zeroGrad() {
	for i := range m.g {
		m.g[i] = 0
	}
}

// adamStep applies one Adam update with optional L1 regularisation,
// scaling the accumulated gradient by invBatch.
func (m *matrix) adamStep(lr, beta1, beta2, eps, l1, invBatch float64, t int) {
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	for i := range m.W {
		g := m.g[i] * invBatch
		if l1 > 0 {
			g += l1 * sign(m.W[i])
		}
		m.m[i] = beta1*m.m[i] + (1-beta1)*g
		m.v[i] = beta2*m.v[i] + (1-beta2)*g*g
		mh := m.m[i] / bc1
		vh := m.v[i] / bc2
		m.W[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
