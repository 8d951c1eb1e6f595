package nn

import "math"

// Fast transcendentals for the compiled inference path.
//
// The serving-shape forward pass (BiLSTM, H=32, T=20) evaluates 3840
// sigmoids and 2560 tanhs per call. math.Exp costs ~8ns here and
// math.Tanh falls back to Exp for |x| >= 0.625 — which trained gate
// pre-activations routinely exceed — so the stdlib activations account
// for more than half of the compiled forward pass. sigmoidFast and
// tanhFast below fold in a classic table-driven exponential (64-entry
// table, degree-5 polynomial on a +-ln2/128 residual) measured at
// ~2 ulp over the gate range, roughly half the cost of math.Exp. The
// reference path (lstm.go) keeps the stdlib functions: it is the parity
// oracle, and the 1e-12 contract in TestCompiledParity is what bounds
// the drift introduced here (observed worst case is ~1e-14 at the model
// outputs).

// expTab[j] holds exp(j/64 * ln2); scaling by 2^k is an exponent-bit
// add, so the fast exponential never multiplies by a separately
// computed power.
var expTab [64]float64

func init() {
	for j := range expTab {
		expTab[j] = math.Exp(float64(j) / 64 * math.Ln2)
	}
}

const (
	invLn2x64 = 64 / math.Ln2
	// 1.5 * 2^52: adding it pins the exponent so the low mantissa bits
	// hold round-to-nearest(z) in two's complement for |z| < 2^51.
	shifter = 3 << 51
	// ln2/64 split so that kf*ln2hi64 is exact for |kf| < 2^20
	// (fdlibm's ln2 split divided by 64; the division is exact).
	ln2hi64 = 0.01083042469326756
	ln2lo64 = 2.9815858269852933e-12
)

// sigmoidFast is 1/(1+e^-x) via the table scheme, folded in so
// the whole evaluation is one call deep on the kernel's hot loop.
// Beyond +-700 the true sigmoid is 0 or 1 to hundreds of digits, so
// the clamp is exact in double precision; the clamp branches are
// never taken on sane inputs, so they predict perfectly. (math.Min/
// math.Max read nicer but are not intrinsified on amd64 — they cost
// two calls per clamp here, measured ~17µs per forward pass.) NaN
// propagates as the reference path would.
func sigmoidFast(x float64) float64 {
	if x != x {
		return x
	}
	y := -x
	if y > 700 {
		y = 700
	} else if y < -700 {
		y = -700
	}
	z := y * invLn2x64
	kf := z + shifter
	ki := int64(math.Float64bits(kf)<<12) >> 12
	kf -= shifter
	r := y - kf*ln2hi64 - kf*ln2lo64
	p := expPoly(r)
	tb := math.Float64bits(expTab[ki&63]) + uint64(ki>>6)<<52
	return 1 / (1 + math.Float64frombits(tb)*p)
}

// tanhFast mirrors math.Tanh's saturation behaviour (|x| > ~19.06
// rounds to +-1 in double; at the clamp the e^-2x identity evaluates
// to exactly +-1, so clamping is exact) and otherwise uses the e^-2x
// identity with the table scheme folded in. Near zero the
// identity is still accurate: the numerator's cancellation keeps the
// absolute error at ~1 ulp of 1, which tanh's unit bound makes
// harmless downstream.
func tanhFast(x float64) float64 {
	if x != x {
		return x
	}
	y := -2 * x
	if y > 38.14 {
		y = 38.14
	} else if y < -38.14 {
		y = -38.14
	}
	z := y * invLn2x64
	kf := z + shifter
	ki := int64(math.Float64bits(kf)<<12) >> 12
	kf -= shifter
	r := y - kf*ln2hi64 - kf*ln2lo64
	p := expPoly(r)
	e := math.Float64frombits(math.Float64bits(expTab[ki&63])+uint64(ki>>6)<<52) * p
	return (1 - e) / (1 + e)
}

// act4 evaluates the four gate activations of one LSTM unit — three
// sigmoids and a tanh — in a single call. Hand-merged so the four
// independent exponential chains sit in one instruction window for the
// out-of-order core to overlap, and so the kernel pays one call per
// unit instead of four. Any non-finite pre-activation falls back to
// the scalar helpers (the sum test is NaN for NaN and +-Inf inputs;
// Inf-Inf cancellation also lands here, which is the slow path doing
// the right thing).
func act4(zi, zf, zg, zo float64) (ig, fg, gg, og float64) {
	if s := zi + zf + zg + zo; s != s {
		return sigmoidFast(zi), sigmoidFast(zf), tanhFast(zg), sigmoidFast(zo)
	}
	yi, yf, yg, yo := -zi, -zf, -2*zg, -zo
	if yi > 700 {
		yi = 700
	} else if yi < -700 {
		yi = -700
	}
	if yf > 700 {
		yf = 700
	} else if yf < -700 {
		yf = -700
	}
	if yg > 38.14 {
		yg = 38.14
	} else if yg < -38.14 {
		yg = -38.14
	}
	if yo > 700 {
		yo = 700
	} else if yo < -700 {
		yo = -700
	}

	ci := yi*invLn2x64 + shifter
	cf := yf*invLn2x64 + shifter
	cg := yg*invLn2x64 + shifter
	co := yo*invLn2x64 + shifter
	ii := int64(math.Float64bits(ci)<<12) >> 12
	jf := int64(math.Float64bits(cf)<<12) >> 12
	jg := int64(math.Float64bits(cg)<<12) >> 12
	jo := int64(math.Float64bits(co)<<12) >> 12
	ri := yi - (ci-shifter)*ln2hi64 - (ci-shifter)*ln2lo64
	rf := yf - (cf-shifter)*ln2hi64 - (cf-shifter)*ln2lo64
	rg := yg - (cg-shifter)*ln2hi64 - (cg-shifter)*ln2lo64
	ro := yo - (co-shifter)*ln2hi64 - (co-shifter)*ln2lo64

	pi := expPoly(ri)
	pf := expPoly(rf)
	pg := expPoly(rg)
	po := expPoly(ro)
	ei := math.Float64frombits(math.Float64bits(expTab[ii&63])+uint64(ii>>6)<<52) * pi
	ef := math.Float64frombits(math.Float64bits(expTab[jf&63])+uint64(jf>>6)<<52) * pf
	eg := math.Float64frombits(math.Float64bits(expTab[jg&63])+uint64(jg>>6)<<52) * pg
	eo := math.Float64frombits(math.Float64bits(expTab[jo&63])+uint64(jo>>6)<<52) * po
	return 1 / (1 + ei), 1 / (1 + ef), (1 - eg) / (1 + eg), 1 / (1 + eo)
}

// expPoly is the shared degree-5 Taylor core of the exponential on the
// reduced residual r in [-ln2/128, ln2/128]; small enough to inline.
func expPoly(r float64) float64 {
	r2 := r * r
	return 1 + r + r2*(0.5+r*(1.0/6)+r2*((1.0/24)+r*(1.0/120)))
}
