package nn

import "sync"

// This file implements the inference-only compiled path. The training
// forward pass (lstm.go) allocates a full backprop cache — eight slices
// per timestep per direction — and runs four separate gate GEMVs per
// step against four separate weight matrices. Neither is needed at
// serving time: the pipeline mounts one trained model and calls it from
// every vessel actor on the hot path, so inference cost per report is
// what bounds world-fleet-scale throughput.
//
// Compile() snapshots the trained weights into a fused layout: the four
// gate rows of each hidden unit sit adjacent in one 4H x (In+Hidden)
// row-major block, so a single pass over [x_t ; h_{t-1}] feeds all four
// gate accumulators from one contiguous weight stream. PredictInto
// walks the sequence with ping-pong state buffers — no per-step cache —
// and keeps every intermediate in a sync.Pool-backed Scratch arena, so
// the steady state allocates nothing.
//
// The accumulation order is exactly the reference Predict's (bias, then
// input terms in index order, then hidden terms). Two deliberate,
// bounded numeric departures buy the rest of the speed: the gate
// activations use the table-driven exponential (fastmath.go, ~2 ulp), and
// on GOAMD64=v3 / arm64 builds the multiply-accumulates fuse
// (kernel_fma.go). Both stay orders of magnitude inside the 1e-12
// parity contract that TestCompiledParity enforces against the
// untouched reference Predict.

// fusedCell is the inference-only snapshot of one LSTM direction.
type fusedCell struct {
	in, hidden int
	width      int // in + hidden, the fused row length
	// w holds 4*hidden rows of length width; rows 4u..4u+3 are the
	// (input, forget, candidate, output) gate rows of unit u, so one
	// unit's step streams one contiguous 4*width block. (An
	// element-interleaved variant was measured ~12% slower: the
	// walking-slice bookkeeping cost more than the register pressure
	// it saved.)
	w []float64
	// b holds the matching fused biases: b[4u..4u+3].
	b []float64
	// vec selects the AVX2/FMA hidden-state GEMV (kernel_avx2_amd64.s)
	// when the CPU supports it and hidden is a multiple of the vector
	// width; otherwise run uses the portable scalar loop.
	vec bool
}

func fuse(c *lstmCell) *fusedCell {
	width := c.In + c.Hidden
	f := &fusedCell{
		in: c.In, hidden: c.Hidden, width: width,
		w:   make([]float64, 4*c.Hidden*width),
		b:   make([]float64, 4*c.Hidden),
		vec: hasAVX2FMA && c.Hidden >= 4 && c.Hidden%4 == 0,
	}
	for u := 0; u < c.Hidden; u++ {
		base := u * 4 * width
		copy(f.w[base:base+width], c.Wi.W[u*width:(u+1)*width])
		copy(f.w[base+width:base+2*width], c.Wf.W[u*width:(u+1)*width])
		copy(f.w[base+2*width:base+3*width], c.Wg.W[u*width:(u+1)*width])
		copy(f.w[base+3*width:base+4*width], c.Wo.W[u*width:(u+1)*width])
		f.b[4*u] = c.Bi.W[u]
		f.b[4*u+1] = c.Bf.W[u]
		f.b[4*u+2] = c.Bg.W[u]
		f.b[4*u+3] = c.Bo.W[u]
	}
	return f
}

// run walks the sequence (reversed when reverse is set) with ping-pong
// state buffers and returns the slice holding the final hidden state —
// one of h/hN, so callers must copy before reusing the scratch. z is
// the 4*hidden pre-activation buffer.
//
// Each step is two passes. The GEMV pass streams the fused weight block
// into z with nothing else in flight, so it runs at the FP-port limit.
// The activation pass then walks z in a tight loop: adjacent units are
// independent, so the out-of-order window overlaps their exp chains and
// divisions instead of serialising them behind a 300-µop GEMV body (the
// single-pass form measured ~11ns per activation; split, ~5ns).
func (f *fusedCell) run(seq [][]float64, reverse bool, h, c, hN, cN, z []float64) []float64 {
	in, hidden := f.in, f.hidden
	h = h[:hidden]
	c = c[:hidden]
	hN = hN[:hidden]
	cN = cN[:hidden]
	z = z[:4*hidden]
	for i := range h {
		h[i] = 0
		c[i] = 0
	}
	n := len(seq)
	for t := 0; t < n; t++ {
		x := seq[t]
		if reverse {
			x = seq[n-1-t]
		}
		x = x[:in]
		if f.vec {
			f.stepVec(x, h, z)
		} else {
			f.stepScalar(x, h, z)
		}
		// Gate pass: all four activations of a unit are evaluated by one
		// act4 call over freshly stored z values, so units pipeline. The
		// output gate is parked back into z's consumed slot; tanh(c)
		// gets its own pass below so it reads finished cN values instead
		// of waiting on this iteration's serial i/f/g chain (measured
		// ~3x faster than fusing the passes).
		for u := 0; u < hidden; u++ {
			ig, fg, gg, og := act4(z[4*u], z[4*u+1], z[4*u+2], z[4*u+3])
			cN[u] = fg*c[u] + ig*gg
			z[4*u] = og
		}
		for u := 0; u < hidden; u++ {
			hN[u] = z[4*u] * tanhFast(cN[u])
		}
		h, hN = hN, h
		c, cN = cN, c
	}
	return h
}

// stepVec is the vector GEMV pass of one step: it seeds z with bias +
// input contributions in Go (the input dim is tiny — 3 in the S-VRF
// shape), then lets the AVX2/FMA kernel stream the hidden-state block,
// which is where ~90% of the multiply-accumulates live. Only called
// when f.vec is set. Shared by the inference run loop and the compiled
// training forward.
func (f *fusedCell) stepVec(x, h, z []float64) {
	in, hidden := f.in, f.hidden
	for u := 0; u < hidden; u++ {
		base := u * 4 * f.width
		ri := f.w[base : base+f.width]
		rf := ri[f.width : 2*f.width]
		rg := ri[2*f.width : 3*f.width]
		ro := ri[3*f.width : 4*f.width]
		zi := f.b[4*u]
		zf := f.b[4*u+1]
		zg := f.b[4*u+2]
		zo := f.b[4*u+3]
		rix, rfx, rgx, rox := ri[:in], rf[:in], rg[:in], ro[:in]
		for k := 0; k < in; k++ {
			xv := x[k]
			zi = madd(rix[k], xv, zi)
			zf = madd(rfx[k], xv, zf)
			zg = madd(rgx[k], xv, zg)
			zo = madd(rox[k], xv, zo)
		}
		z[4*u] = zi
		z[4*u+1] = zf
		z[4*u+2] = zg
		z[4*u+3] = zo
	}
	gemvHiddenAVX2(&f.w[0], &h[0], &z[0], hidden, f.width, in)
}

// stepScalar is the portable GEMV pass of one step: for each unit it
// streams the fused 4xwidth weight block over [x ; h] and stores the
// four gate pre-activations into z. It is the only GEMV on platforms
// without the vector kernel, and the fallback for hidden sizes the
// kernel does not cover.
func (f *fusedCell) stepScalar(x, h, z []float64) {
	in, hidden := f.in, f.hidden
	for u := 0; u < hidden; u++ {
		base := u * 4 * f.width
		// Re-sliced to exact lengths so the inner loops run without
		// bounds checks; one contiguous weight stream per unit.
		ri := f.w[base : base+f.width]
		rf := ri[f.width : 2*f.width]
		rg := ri[2*f.width : 3*f.width]
		ro := ri[3*f.width : 4*f.width]
		zi := f.b[4*u]
		zf := f.b[4*u+1]
		zg := f.b[4*u+2]
		zo := f.b[4*u+3]
		// Re-sliced to length in so the prove pass drops every
		// bounds check in the input loop.
		rix, rfx, rgx, rox := ri[:in], rf[:in], rg[:in], ro[:in]
		for k := 0; k < in; k++ {
			xv := x[k]
			zi = madd(rix[k], xv, zi)
			zf = madd(rfx[k], xv, zf)
			zg = madd(rgx[k], xv, zg)
			zo = madd(rox[k], xv, zo)
		}
		wi := ri[in : in+hidden]
		wf := rf[in : in+hidden]
		wg := rg[in : in+hidden]
		wo := ro[in : in+hidden]
		// Unrolled by two to halve the loop overhead; the nested
		// madds keep the reference accumulation order (low index
		// first), so the generic build stays order-exact.
		k := 0
		for ; k+1 < hidden; k += 2 {
			hv0, hv1 := h[k], h[k+1]
			zi = madd(wi[k+1], hv1, madd(wi[k], hv0, zi))
			zf = madd(wf[k+1], hv1, madd(wf[k], hv0, zf))
			zg = madd(wg[k+1], hv1, madd(wg[k], hv0, zg))
			zo = madd(wo[k+1], hv1, madd(wo[k], hv0, zo))
		}
		if k < hidden {
			hv := h[k]
			zi = madd(wi[k], hv, zi)
			zf = madd(wf[k], hv, zf)
			zg = madd(wg[k], hv, zg)
			zo = madd(wo[k], hv, zo)
		}
		z[4*u] = zi
		z[4*u+1] = zf
		z[4*u+2] = zg
		z[4*u+3] = zo
	}
}

// Scratch is the reusable per-call state arena of a Compiled model: the
// ping-pong LSTM state buffers, the encoder output, and an output
// vector for callers that do not bring their own. One Scratch serves
// one PredictInto call at a time; use one per goroutine, or let
// PredictInto draw from the model's internal pool by passing nil.
type Scratch struct {
	h, c, hN, cN []float64
	z            []float64 // 4*Hidden pre-activations, one step at a time
	enc          []float64
	out          []float64
}

// Compiled is an immutable, inference-only snapshot of a trained
// SeqRegressor. It shares no storage with the source model, so training
// the source further never races a Compiled in use; recompile to pick
// up new weights. All methods are safe for concurrent use.
type Compiled struct {
	cfg    Config
	fw     *fusedCell
	bw     *fusedCell // nil when unidirectional
	encDim int
	outW   []float64 // OutputDim x encDim, row-major
	outB   []float64 // OutputDim
	pool   sync.Pool // *Scratch
}

// Compile snapshots the model's current weights into the fused
// inference layout. The returned Compiled produces outputs
// bit-identical to the reference Predict at the time of the call.
func (m *SeqRegressor) Compile() *Compiled {
	c := &Compiled{
		cfg:    m.cfg,
		fw:     fuse(m.fw),
		encDim: m.cfg.Hidden,
		outW:   append([]float64(nil), m.out.W...),
		outB:   append([]float64(nil), m.ob.W...),
	}
	if m.bw != nil {
		c.bw = fuse(m.bw)
		c.encDim = 2 * m.cfg.Hidden
	}
	c.pool.New = func() any {
		return &Scratch{
			h:   make([]float64, c.cfg.Hidden),
			c:   make([]float64, c.cfg.Hidden),
			hN:  make([]float64, c.cfg.Hidden),
			cN:  make([]float64, c.cfg.Hidden),
			z:   make([]float64, 4*c.cfg.Hidden),
			enc: make([]float64, c.encDim),
			out: make([]float64, c.cfg.OutputDim),
		}
	}
	return c
}

// GetScratch draws a scratch arena from the model's pool. Callers that
// predict in a loop should hold one scratch for the whole loop instead
// of paying the pool round-trip per call.
func (c *Compiled) GetScratch() *Scratch { return c.pool.Get().(*Scratch) }

// PutScratch returns a scratch to the pool.
func (c *Compiled) PutScratch(s *Scratch) { c.pool.Put(s) }

// PredictInto runs the fused forward pass over seq and writes the
// OutputDim outputs into dst, which it returns. A nil dst selects the
// scratch's own output buffer; a nil scratch draws one from the
// internal pool for the duration of the call. With a non-nil dst and
// scratch the call does not allocate.
func (c *Compiled) PredictInto(dst []float64, seq [][]float64, s *Scratch) []float64 {
	if s == nil {
		s = c.GetScratch()
		defer c.PutScratch(s)
		if dst == nil {
			// The scratch goes back to the pool at return, so its out
			// buffer cannot carry the result.
			dst = make([]float64, c.cfg.OutputDim)
		}
	}
	if dst == nil {
		dst = s.out
	}
	dst = dst[:c.cfg.OutputDim]
	if len(seq) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	enc := s.enc[:c.encDim]
	hFinal := c.fw.run(seq, false, s.h, s.c, s.hN, s.cN, s.z)
	copy(enc[:c.cfg.Hidden], hFinal)
	if c.bw != nil {
		hFinal = c.bw.run(seq, true, s.h, s.c, s.hN, s.cN, s.z)
		copy(enc[c.cfg.Hidden:], hFinal)
	}
	for o := 0; o < c.cfg.OutputDim; o++ {
		row := c.outW[o*c.encDim : (o+1)*c.encDim]
		z := c.outB[o]
		for k, e := range enc {
			z = madd(row[k], e, z)
		}
		dst[o] = z
	}
	return dst
}

// PredictBatch runs the compiled forward pass over many sequences —
// the bulk shape of the Figure 6 replay and the VTFF rasterisation.
// dst is reused row-by-row when it has capacity (rows of length
// OutputDim are written in place; short or missing rows are allocated).
// workers > 1 spreads the batch over that many goroutines, each with
// its own pooled scratch; workers <= 0 selects one worker per
// sequence up to the number of pool-backed scratches worth holding
// (len(seqs) capped at 8). The result has one row per input sequence.
func (c *Compiled) PredictBatch(dst [][]float64, seqs [][][]float64, workers int) [][]float64 {
	if cap(dst) >= len(seqs) {
		dst = dst[:len(seqs)]
	} else {
		old := dst
		dst = make([][]float64, len(seqs))
		copy(dst, old)
	}
	for i := range dst {
		if len(dst[i]) != c.cfg.OutputDim {
			dst[i] = make([]float64, c.cfg.OutputDim)
		}
	}
	if workers <= 0 {
		workers = len(seqs)
		if workers > 8 {
			workers = 8
		}
	}
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers <= 1 {
		s := c.GetScratch()
		for i, seq := range seqs {
			c.PredictInto(dst[i], seq, s)
		}
		c.PutScratch(s)
		return dst
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.GetScratch()
			for i := w; i < len(seqs); i += workers {
				c.PredictInto(dst[i], seqs[i], s)
			}
			c.PutScratch(s)
		}(w)
	}
	wg.Wait()
	return dst
}
