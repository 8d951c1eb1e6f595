package nn

import (
	"runtime"
	"sync"
)

// This file implements the compiled trainer, the only production
// trainer. Its parity oracle, the reference trainer in
// reference_test.go, walks four separate per-gate matrices in both
// directions of both passes; profiling shows >90% of a training
// step is the two GEMV-shaped loop nests — forward pre-activations and
// the backward hidden-state gradient — plus the rank-1 weight-gradient
// updates. All three are exactly the memory shapes the PR 3 fused
// inference layout was built for, so TrainCompiled packs the gate
// matrices into the same 4H x (In+Hidden) row-major blocks, runs the
// forward GEMV through the identical stepVec/stepScalar kernels, and
// adds two training-only kernels (kernel_train_amd64.s): dotRows4AVX2
// for the transposed backward GEMV and rank1HiddenAVX2 for the rank-1
// weight-gradient updates.
//
// Numerics: the compiled forward uses act4/tanhFast (~2 ulp) like
// compiled inference; everything downstream of the activations is the
// same arithmetic as the reference BPTT in the same order, so per-
// element gradients agree with the reference to ~1e-12 on trained-scale
// weights — the gradient-check tests enforce <=1e-8. The optimiser is
// not reimplemented at all: worker gradients are scattered back into
// the master's per-gate matrix accumulators and the shared applyStep
// (clip + Adam + L1) runs unchanged, so compiled and reference training
// differ only in forward/backward arithmetic, never in step semantics.
//
// Concurrency: one trainWorker per goroutine holds every mutable buffer
// (activation arenas, fused gradient blocks, BPTT state). The fused
// weight blocks and the master's weights are shared read-only during
// the gradient phase; pack() refreshes them once per batch after the
// master steps. Workers take strided sample assignments (worker w gets
// samples w, w+workers, ...) and merge in worker order, so a fixed
// worker count is exactly reproducible.

// fusedTrain is one LSTM direction's training-time fused snapshot: the
// inference fusedCell layout plus the transposed hidden block the
// backward GEMV streams, and the source cell to re-pack from after each
// optimiser step.
type fusedTrain struct {
	fusedCell
	src *lstmCell
	// wT is the hidden columns of w transposed: wT[k*4H + r] =
	// w[r*width + in + k], so the backward hidden-state gradient
	// dhPrev[k] = sum_r zg[r]*w[r*width+in+k] becomes a dense
	// row-major GEMV over contiguous rows of length 4H. Only built on
	// the vector path; the scalar fallback reads w directly.
	wT []float64
}

func newFusedTrain(c *lstmCell) *fusedTrain {
	ft := &fusedTrain{fusedCell: *fuse(c), src: c}
	if ft.vec {
		ft.wT = make([]float64, ft.hidden*4*ft.hidden)
	}
	ft.pack()
	return ft
}

// pack refreshes the fused weight/bias blocks (and the transpose) from
// the source cell. Called once per batch: the master's weights only
// move in applyStep, and the copy is linear in the parameter count —
// noise next to the O(T * H^2) batch compute.
func (ft *fusedTrain) pack() {
	c := ft.src
	width := ft.width
	for u := 0; u < c.Hidden; u++ {
		base := u * 4 * width
		copy(ft.w[base:base+width], c.Wi.W[u*width:(u+1)*width])
		copy(ft.w[base+width:base+2*width], c.Wf.W[u*width:(u+1)*width])
		copy(ft.w[base+2*width:base+3*width], c.Wg.W[u*width:(u+1)*width])
		copy(ft.w[base+3*width:base+4*width], c.Wo.W[u*width:(u+1)*width])
		ft.b[4*u] = c.Bi.W[u]
		ft.b[4*u+1] = c.Bf.W[u]
		ft.b[4*u+2] = c.Bg.W[u]
		ft.b[4*u+3] = c.Bo.W[u]
	}
	if ft.vec {
		in, hidden := ft.in, ft.hidden
		for k := 0; k < hidden; k++ {
			row := ft.wT[k*4*hidden : (k+1)*4*hidden]
			for r := range row {
				row[r] = ft.w[r*width+in+k]
			}
		}
	}
}

// trainArena is one direction's per-worker activation cache: unlike the
// inference path, BPTT must keep every step. Layout is chosen for the
// backward pass: gates holds the four activated gates of unit u at
// slots 4u..4u+3 (matching the fused z layout), and tanh(c_t) is cached
// at forward time so backward never re-evaluates a transcendental.
type trainArena struct {
	// hsBuf backs hs contiguously ((n+1) x hidden, row-major): the
	// deferred weight-gradient GEMM streams all hidden states of a
	// sample in one kernel call, so they must be one dense block.
	hsBuf []float64
	// zgBuf backs zgs contiguously (n x 4*hidden): the per-step
	// pre-activation gradients, kept until the deferred GEMM at the end
	// of the backward pass (vector path only).
	zgBuf []float64
	hs    [][]float64 // n+1 rows; row 0 is the zero initial state, never written
	cs    [][]float64 // n+1 rows; row 0 zero likewise
	zgs   [][]float64 // n rows of 4*hidden (views into zgBuf)
	gates [][]float64 // n rows of 4*hidden: activated (i, f, g, o) per unit
	tanhC [][]float64 // n rows of hidden
	xs    [][]float64 // n input pointers (reverse indexing resolved once)
}

func (ar *trainArena) ensure(n, hidden int, vec bool) {
	if len(ar.hs) < n+1 {
		ar.hsBuf = make([]float64, (n+1)*hidden)
		ar.hs = ar.hs[:0]
		for t := 0; t <= n; t++ {
			ar.hs = append(ar.hs, ar.hsBuf[t*hidden:(t+1)*hidden])
		}
	}
	for len(ar.cs) < n+1 {
		ar.cs = append(ar.cs, make([]float64, hidden))
	}
	for len(ar.gates) < n {
		ar.gates = append(ar.gates, make([]float64, 4*hidden))
		ar.tanhC = append(ar.tanhC, make([]float64, hidden))
		ar.xs = append(ar.xs, nil)
	}
	if vec && len(ar.zgs) < n {
		ar.zgBuf = make([]float64, n*4*hidden)
		ar.zgs = ar.zgs[:0]
		for t := 0; t < n; t++ {
			ar.zgs = append(ar.zgs, ar.zgBuf[t*4*hidden:(t+1)*4*hidden])
		}
	}
}

// forwardTrain runs the fused forward pass over seq (reversed when
// reverse is set), caching activations into the arena. z is the
// caller's 4*hidden pre-activation buffer.
func (ft *fusedTrain) forwardTrain(seq [][]float64, reverse bool, ar *trainArena, z []float64) {
	in, hidden := ft.in, ft.hidden
	n := len(seq)
	ar.ensure(n, hidden, ft.vec)
	z = z[:4*hidden]
	for t := 0; t < n; t++ {
		x := seq[t]
		if reverse {
			x = seq[n-1-t]
		}
		x = x[:in]
		ar.xs[t] = x
		h := ar.hs[t]
		if ft.vec {
			ft.stepVec(x, h, z)
		} else {
			ft.stepScalar(x, h, z)
		}
		g := ar.gates[t]
		cPrev := ar.cs[t]
		cN := ar.cs[t+1]
		hN := ar.hs[t+1]
		tC := ar.tanhC[t]
		for u := 0; u < hidden; u++ {
			ig, fg, gg, og := act4(z[4*u], z[4*u+1], z[4*u+2], z[4*u+3])
			cN[u] = fg*cPrev[u] + ig*gg
			g[4*u] = ig
			g[4*u+1] = fg
			g[4*u+2] = gg
			g[4*u+3] = og
		}
		// Separate pass so tanh reads finished cN values instead of
		// serialising behind each unit's i/f/g chain (same split as the
		// inference run loop).
		for u := 0; u < hidden; u++ {
			tC[u] = tanhFast(cN[u])
			hN[u] = g[4*u+3] * tC[u]
		}
	}
}

// backwardTrain propagates dLast through the cached steps, accumulating
// fused weight gradients into gw (4H x width, same layout as ft.w) and
// fused bias gradients into gb (4H). The per-unit chain-rule algebra is
// the reference backward's, verbatim; only the two heavy loop nests —
// the rank-1 weight update and the hidden-state gradient GEMV — go
// through the vector kernels.
func (ft *fusedTrain) backwardTrain(n int, ar *trainArena, dLast []float64, gw, gb []float64, w *trainWorker) {
	in, hidden := ft.in, ft.hidden
	width := ft.width
	dh := w.dh[:hidden]
	dc := w.dc[:hidden]
	copy(dh, dLast)
	for i := range dc {
		dc[i] = 0
	}
	sp1 := w.sp1[:hidden]
	sp2 := w.sp2[:hidden]
	for t := n - 1; t >= 0; t-- {
		g := ar.gates[t]
		tC := ar.tanhC[t]
		cPrev := ar.cs[t]
		// On the vector path each step's pre-activation gradients are
		// kept in the arena: the weight-gradient GEMM below the time
		// loop consumes all of them at once.
		zg := w.zg[:4*hidden]
		if ft.vec {
			zg = ar.zgs[t]
		}
		dhPrev := sp1
		dcPrev := sp2
		for i := range dhPrev {
			dhPrev[i] = 0 // accumulated below; dcPrev is direct-store
		}
		for u := 0; u < hidden; u++ {
			ig := g[4*u]
			fg := g[4*u+1]
			gg := g[4*u+2]
			og := g[4*u+3]
			tcU := tC[u]
			do := dh[u] * tcU
			dcU := dc[u] + dh[u]*og*(1-tcU*tcU)
			di := dcU * gg
			dg := dcU * ig
			df := dcU * cPrev[u]
			dcPrev[u] = dcU * fg

			// Pre-activation gradients, stored in the fused gate order.
			zi := di * ig * (1 - ig)
			zf := df * fg * (1 - fg)
			zgg := dg * (1 - gg*gg)
			zo := do * og * (1 - og)
			zg[4*u] = zi
			zg[4*u+1] = zf
			zg[4*u+2] = zgg
			zg[4*u+3] = zo
			gb[4*u] += zi
			gb[4*u+1] += zf
			gb[4*u+2] += zgg
			gb[4*u+3] += zo
		}
		if ft.vec {
			// dhPrev += wT · zg: hidden rows of length 4H, contiguous.
			dotRows4AVX2(&ft.wT[0], &zg[0], &dhPrev[0], hidden/4, 4*hidden, 4*hidden)
		} else {
			hPrev := ar.hs[t]
			x := ar.xs[t]
			for r := 0; r < 4*hidden; r++ {
				a := zg[r]
				row := gw[r*width : r*width+width]
				for k := 0; k < in; k++ {
					row[k] += a * x[k]
				}
				rh := row[in : in+hidden]
				for k := 0; k < hidden; k++ {
					rh[k] += a * hPrev[k]
				}
			}
			for k := 0; k < hidden; k++ {
				s := 0.0
				col := in + k
				for r := 0; r < 4*hidden; r++ {
					s += zg[r] * ft.w[r*width+col]
				}
				dhPrev[k] += s
			}
		}
		sp1, dh = dh, dhPrev
		sp2, dc = dc, dcPrev
	}
	if ft.vec {
		// Deferred rank-1 weight updates, accumulated across all steps
		// in one pass: gw += sum_t zg_t ⊗ [x_t ; h_{t-1}]. The input
		// segment stays scalar (In is 3 in the S-VRF shape); the hidden
		// segment is a register-tiled GEMM that loads and stores each
		// gradient element once per sample instead of once per step.
		// (Summing t ascending instead of the reference's descending
		// order reorders additions by ~1 ulp — far inside the 1e-8
		// gradient-parity contract.)
		for t := 0; t < n; t++ {
			zg := ar.zgs[t]
			x := ar.xs[t]
			for r := 0; r < 4*hidden; r++ {
				a := zg[r]
				row := gw[r*width : r*width+in]
				for k := 0; k < in; k++ {
					row[k] += a * x[k]
				}
			}
		}
		deferredRank1AVX2(&gw[in], &ar.hsBuf[0], &ar.zgBuf[0], 4*hidden, hidden, n, width, hidden, 4*hidden)
	}
}

// trainWorker owns every mutable buffer of one gradient goroutine:
// activation arenas per direction, fused gradient accumulators, BPTT
// state, and the head's scratch. Workers persist across batches on the
// TrainCompiled plan; ensureWorkers re-zeroes them per batch.
type trainWorker struct {
	arF, arB trainArena
	gwF, gbF []float64 // fused forward-cell grads: 4H x width, 4H
	gwB, gbB []float64 // backward cell (nil when unidirectional)
	outG     []float64 // head weight grads: OutputDim x encDim
	obG      []float64 // head bias grads: OutputDim
	z        []float64 // 4H pre-activations (forward)
	zg       []float64 // 4H pre-activation gradients (backward)
	dh, dc   []float64
	sp1, sp2 []float64
	enc      []float64
	dEnc     []float64
	y, dy    []float64
	loss     float64
}

func newTrainWorker(m *SeqRegressor) *trainWorker {
	h := m.cfg.Hidden
	width := m.cfg.InputDim + h
	encDim := m.encDim()
	w := &trainWorker{
		gwF:  make([]float64, 4*h*width),
		gbF:  make([]float64, 4*h),
		outG: make([]float64, m.cfg.OutputDim*encDim),
		obG:  make([]float64, m.cfg.OutputDim),
		z:    make([]float64, 4*h),
		zg:   make([]float64, 4*h),
		dh:   make([]float64, h),
		dc:   make([]float64, h),
		sp1:  make([]float64, h),
		sp2:  make([]float64, h),
		enc:  make([]float64, encDim),
		dEnc: make([]float64, encDim),
		y:    make([]float64, m.cfg.OutputDim),
		dy:   make([]float64, m.cfg.OutputDim),
	}
	if m.bw != nil {
		w.gwB = make([]float64, 4*h*width)
		w.gbB = make([]float64, 4*h)
	}
	return w
}

func (w *trainWorker) zero() {
	zeroF64(w.gwF)
	zeroF64(w.gbF)
	zeroF64(w.gwB)
	zeroF64(w.gbB)
	zeroF64(w.outG)
	zeroF64(w.obG)
	w.loss = 0
}

func zeroF64(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// TrainCompiled is a training plan bound to one SeqRegressor. It owns
// the fused weight snapshots and the persistent worker pool; the master
// model keeps the parameters, optimiser state and step counter, so the
// compiled and reference paths can be interleaved freely on the same
// model. Not safe for concurrent TrainBatch calls (neither is the
// model it wraps).
type TrainCompiled struct {
	m       *SeqRegressor
	fw      *fusedTrain
	bw      *fusedTrain // nil when unidirectional
	workers []*trainWorker
}

// CompileTrain builds a compiled training plan for the model. The plan
// re-snapshots weights at every batch, so it stays valid across
// arbitrarily many optimisation steps (including reference steps taken
// in between).
func (m *SeqRegressor) CompileTrain() *TrainCompiled {
	tc := &TrainCompiled{m: m, fw: newFusedTrain(m.fw)}
	if m.bw != nil {
		tc.bw = newFusedTrain(m.bw)
	}
	return tc
}

func (tc *TrainCompiled) ensureWorkers(n int) {
	for len(tc.workers) < n {
		tc.workers = append(tc.workers, newTrainWorker(tc.m))
	}
	for w := 0; w < n; w++ {
		tc.workers[w].zero()
	}
}

// gradSample computes one sample's loss and accumulates gradients into
// the worker's fused buffers. Allocation-free once the worker's arenas
// have grown to the longest sequence.
func (tc *TrainCompiled) gradSample(w *trainWorker, s Sample) float64 {
	m := tc.m
	n := len(s.Seq)
	if n == 0 {
		return 0
	}
	hiddenDim := m.cfg.Hidden
	encDim := m.encDim()

	tc.fw.forwardTrain(s.Seq, false, &w.arF, w.z)
	enc := w.enc[:encDim]
	copy(enc[:hiddenDim], w.arF.hs[n])
	if tc.bw != nil {
		tc.bw.forwardTrain(s.Seq, true, &w.arB, w.z)
		copy(enc[hiddenDim:], w.arB.hs[n])
	}

	y := w.y
	for o := 0; o < m.cfg.OutputDim; o++ {
		z := m.ob.W[o]
		row := m.out.W[o*encDim : (o+1)*encDim]
		for k, e := range enc {
			z = madd(row[k], e, z)
		}
		y[o] = z
	}
	loss := 0.0
	dy := w.dy
	for o := range y {
		diff := y[o] - s.Target[o]
		loss += diff * diff
		dy[o] = 2 * diff / float64(m.cfg.OutputDim)
	}
	loss /= float64(m.cfg.OutputDim)

	dEnc := w.dEnc[:encDim]
	zeroF64(dEnc)
	for o := 0; o < m.cfg.OutputDim; o++ {
		w.obG[o] += dy[o]
		row := o * encDim
		wRow := m.out.W[row : row+encDim]
		gRow := w.outG[row : row+encDim]
		d := dy[o]
		for k, e := range enc {
			gRow[k] += d * e
			dEnc[k] += d * wRow[k]
		}
	}
	tc.fw.backwardTrain(n, &w.arF, dEnc[:hiddenDim], w.gwF, w.gbF, w)
	if tc.bw != nil {
		tc.bw.backwardTrain(n, &w.arB, dEnc[hiddenDim:], w.gwB, w.gbB, w)
	}
	return loss
}

// scatter adds a worker's fused gradients into the master's per-gate
// matrix accumulators, translating fused rows 4u..4u+3 back to the
// (Wi, Wf, Wg, Wo) blocks. Runs on the caller's goroutine in worker
// order, so the merge is deterministic for a fixed worker count.
func (tc *TrainCompiled) scatter(w *trainWorker) {
	m := tc.m
	scatterCell(m.fw, w.gwF, w.gbF)
	if m.bw != nil {
		scatterCell(m.bw, w.gwB, w.gbB)
	}
	for i, g := range w.outG {
		m.out.g[i] += g
	}
	for i, g := range w.obG {
		m.ob.g[i] += g
	}
}

func scatterCell(c *lstmCell, gw, gb []float64) {
	width := c.In + c.Hidden
	for u := 0; u < c.Hidden; u++ {
		base := u * 4 * width
		row := u * width
		addF64(c.Wi.g[row:row+width], gw[base:base+width])
		addF64(c.Wf.g[row:row+width], gw[base+width:base+2*width])
		addF64(c.Wg.g[row:row+width], gw[base+2*width:base+3*width])
		addF64(c.Wo.g[row:row+width], gw[base+3*width:base+4*width])
		c.Bi.g[u] += gb[4*u]
		c.Bf.g[u] += gb[4*u+1]
		c.Bg.g[u] += gb[4*u+2]
		c.Bo.g[u] += gb[4*u+3]
	}
}

func addF64(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// TrainBatch runs one optimisation step through the compiled path and
// returns the mean sample loss. The optimiser tail (clip, Adam, L1,
// step counter) is the master model's applyStep — identical to the
// reference TrainBatch's.
func (tc *TrainCompiled) TrainBatch(batch []Sample, lr float64, workers int) float64 {
	m := tc.m
	if len(batch) == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	tc.fw.pack()
	if tc.bw != nil {
		tc.bw.pack()
	}
	tc.ensureWorkers(workers)

	if workers == 1 {
		w := tc.workers[0]
		for _, s := range batch {
			w.loss += tc.gradSample(w, s)
		}
	} else {
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := tc.workers[wi]
				for i := wi; i < len(batch); i += workers {
					w.loss += tc.gradSample(w, batch[i])
				}
			}(wi)
		}
		wg.Wait()
	}

	m.zeroGrad()
	total := 0.0
	for wi := 0; wi < workers; wi++ {
		total += tc.workers[wi].loss
		tc.scatter(tc.workers[wi])
	}
	m.applyStep(lr, len(batch))
	return total / float64(len(batch))
}

// Fit trains on the dataset with shuffled mini-batches. The
// epoch/shuffle loop is shared with the reference trainer, so a fixed
// seed visits batches in the same order on both.
func (tc *TrainCompiled) Fit(data []Sample, opt FitOptions) float64 {
	return tc.m.fit(data, opt, tc.TrainBatch)
}
