package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestFastActivationAccuracy pins the fast activations to the stdlib
// implementations the reference path uses. The bound here (5e-15
// relative for exp, 1e-14 absolute for the squashing functions) is what
// keeps the end-to-end 1e-12 parity contract comfortable.
func TestFastActivationAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var maxExp, maxSig, maxTanh float64
	for i := 0; i < 500000; i++ {
		// Gate pre-activations live well inside +-40 for any sane model;
		// sweep wider than that to cover pathological weights too.
		x := (rng.Float64()*2 - 1) * 50
		if e := math.Abs(expFast(x)-math.Exp(x)) / math.Exp(x); e > maxExp {
			maxExp = e
		}
		if e := math.Abs(sigmoidFast(x) - 1/(1+math.Exp(-x))); e > maxSig {
			maxSig = e
		}
		if e := math.Abs(tanhFast(x) - math.Tanh(x)); e > maxTanh {
			maxTanh = e
		}
	}
	t.Logf("max err: exp %.3g (rel), sigmoid %.3g (abs), tanh %.3g (abs)", maxExp, maxSig, maxTanh)
	if maxExp > 5e-15 {
		t.Errorf("expFast relative error %g exceeds 5e-15", maxExp)
	}
	if maxSig > 1e-14 {
		t.Errorf("sigmoidFast absolute error %g exceeds 1e-14", maxSig)
	}
	if maxTanh > 1e-14 {
		t.Errorf("tanhFast absolute error %g exceeds 1e-14", maxTanh)
	}
}

// TestFastActivationEdges covers the saturation clamps, zero, denormal
// inputs, and NaN propagation — the places a bit-trick exp goes wrong.
func TestFastActivationEdges(t *testing.T) {
	for _, x := range []float64{0, 5e-324, -5e-324, 1e-300, -1e-300, 19.06, 19.08, -19.08, 690, -690, 701, -701, 1e6, -1e6} {
		if g, w := sigmoidFast(x), 1/(1+math.Exp(-x)); math.Abs(g-w) > 1e-14 {
			t.Errorf("sigmoidFast(%g) = %g, want %g", x, g, w)
		}
		if g, w := tanhFast(x), math.Tanh(x); math.Abs(g-w) > 1e-14 {
			t.Errorf("tanhFast(%g) = %g, want %g", x, g, w)
		}
	}
	if !math.IsNaN(sigmoidFast(math.NaN())) {
		t.Error("sigmoidFast(NaN) must be NaN")
	}
	if !math.IsNaN(tanhFast(math.NaN())) {
		t.Error("tanhFast(NaN) must be NaN")
	}
}

// expFast computes e^x to ~2 ulp for |x| <= 700 with the table scheme
// sigmoidFast and tanhFast fold in, so its accuracy bounds theirs.
// Outside that band the exponent-bit scaling wraps.
func expFast(x float64) float64 {
	z := x * invLn2x64
	kf := z + shifter
	ki := int64(math.Float64bits(kf)<<12) >> 12
	kf -= shifter
	r := x - kf*ln2hi64 - kf*ln2lo64
	tb := math.Float64bits(expTab[ki&63]) + uint64(ki>>6)<<52
	return math.Float64frombits(tb) * expPoly(r)
}
