package nn

import (
	"math"
	"math/rand"
)

// lstmCell holds the parameters of one LSTM direction. The four gate
// weight matrices each map the concatenation [x_t ; h_{t-1}] (size
// in+hidden) to hidden units.
type lstmCell struct {
	In, Hidden int
	// Gate order: input (i), forget (f), candidate (g), output (o).
	Wi, Wf, Wg, Wo *matrix // hidden x (in+hidden)
	Bi, Bf, Bg, Bo *matrix // hidden x 1
}

func newLSTMCell(in, hidden int, rng *rand.Rand) *lstmCell {
	scale := 1.0 / math.Sqrt(float64(in+hidden))
	c := &lstmCell{
		In: in, Hidden: hidden,
		Wi: newMatrix(hidden, in+hidden, scale, rng),
		Wf: newMatrix(hidden, in+hidden, scale, rng),
		Wg: newMatrix(hidden, in+hidden, scale, rng),
		Wo: newMatrix(hidden, in+hidden, scale, rng),
		Bi: newMatrix(hidden, 1, 0, rng),
		Bf: newMatrix(hidden, 1, 0, rng),
		Bg: newMatrix(hidden, 1, 0, rng),
		Bo: newMatrix(hidden, 1, 0, rng),
	}
	// Forget-gate bias starts at 1: standard trick so early training
	// does not erase the cell state.
	for i := range c.Bf.W {
		c.Bf.W[i] = 1
	}
	return c
}

func (c *lstmCell) matrices() []*matrix {
	return []*matrix{c.Wi, c.Wf, c.Wg, c.Wo, c.Bi, c.Bf, c.Bg, c.Bo}
}

// lstmStep caches one timestep's activations (the reference BPTT in
// reference_test.go reads them back).
type lstmStep struct {
	x          []float64 // input at t
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64 // gate activations
	c, h       []float64
}

// cellScratch is the reusable per-direction arena of forward: the
// per-step activation caches plus the zero initial state. One scratch
// serves one goroutine, so a reused scratch runs forward
// allocation-free once it has grown to the longest sequence.
type cellScratch struct {
	steps  []lstmStep
	h0, c0 []float64 // zero initial state; never written
}

// ensure grows the arena to hold n steps of hidden-sized buffers.
func (sc *cellScratch) ensure(n, hidden int) {
	if sc.h0 == nil {
		sc.h0 = make([]float64, hidden)
		sc.c0 = make([]float64, hidden)
	}
	for len(sc.steps) < n {
		sc.steps = append(sc.steps, lstmStep{
			i: make([]float64, hidden),
			f: make([]float64, hidden),
			g: make([]float64, hidden),
			o: make([]float64, hidden),
			c: make([]float64, hidden),
			h: make([]float64, hidden),
		})
	}
}

// forward runs the cell over the sequence (reversed when reverse is
// set) into the scratch arena and returns the per-step cache. The
// caller reads the final hidden state from the last step. Buffers are
// reused across calls; the returned steps are valid until the next
// forward on the same scratch.
func (c *lstmCell) forward(seq [][]float64, reverse bool, sc *cellScratch) []lstmStep {
	n := len(seq)
	sc.ensure(n, c.Hidden)
	steps := sc.steps[:n]
	h := sc.h0
	cc := sc.c0
	for t := 0; t < n; t++ {
		x := seq[t]
		if reverse {
			x = seq[n-1-t]
		}
		st := &steps[t]
		st.x = x
		st.hPrev = h
		st.cPrev = cc
		for u := 0; u < c.Hidden; u++ {
			zi := c.Bi.W[u]
			zf := c.Bf.W[u]
			zg := c.Bg.W[u]
			zo := c.Bo.W[u]
			row := u * (c.In + c.Hidden)
			for k := 0; k < c.In; k++ {
				zi += c.Wi.W[row+k] * x[k]
				zf += c.Wf.W[row+k] * x[k]
				zg += c.Wg.W[row+k] * x[k]
				zo += c.Wo.W[row+k] * x[k]
			}
			for k := 0; k < c.Hidden; k++ {
				hv := h[k]
				zi += c.Wi.W[row+c.In+k] * hv
				zf += c.Wf.W[row+c.In+k] * hv
				zg += c.Wg.W[row+c.In+k] * hv
				zo += c.Wo.W[row+c.In+k] * hv
			}
			st.i[u] = sigmoid(zi)
			st.f[u] = sigmoid(zf)
			st.g[u] = math.Tanh(zg)
			st.o[u] = sigmoid(zo)
			st.c[u] = st.f[u]*cc[u] + st.i[u]*st.g[u]
			st.h[u] = st.o[u] * math.Tanh(st.c[u])
		}
		h = st.h
		cc = st.c
	}
	return steps
}
