package nn

import (
	"math"
	"runtime"
	"sync"
)

// refTrain is the reference trainer: straightforward per-gate BPTT over
// the interpreted forward pass (lstmCell.forward), the parity oracle of
// TrainCompiled. Like the compiled plan it is bound to one model whose
// parameters, optimiser state and applyStep it shares, so the two
// trainers differ only in forward/backward arithmetic and can be
// interleaved on the same model.
type refTrain struct {
	m *SeqRegressor
	// Single-goroutine scratch, reused across samples so steady-state
	// gradSample does not allocate.
	es       encodeScratch
	fwB, bwB bpttScratch
	y, dy    []float64
	dEnc     []float64
	// replicas are the persistent multi-worker trainers, each over a
	// private model clone: cloned once, then re-synced (weights copied,
	// gradients zeroed) at each batch instead of re-cloned, so
	// steady-state TrainBatch does not allocate per replica.
	replicas   []*refTrain
	workerLoss []float64
}

func newRefTrain(m *SeqRegressor) *refTrain { return &refTrain{m: m} }

// bpttScratch is one direction's backward-pass state: the running
// hidden/cell gradients and their swap partners.
type bpttScratch struct {
	dh, dc []float64
	sp1    []float64 // dhPrev / dh swap partner
	sp2    []float64 // dcPrev / dc swap partner
}

func (sc *bpttScratch) ensure(hidden int) {
	if sc.dh == nil {
		sc.dh = make([]float64, hidden)
		sc.dc = make([]float64, hidden)
		sc.sp1 = make([]float64, hidden)
		sc.sp2 = make([]float64, hidden)
	}
}

// backward propagates dLast (gradient w.r.t. the final hidden state)
// through time, accumulating parameter gradients. It returns nothing:
// input gradients are not needed because the LSTM is the first layer.
func (c *lstmCell) backward(steps []lstmStep, dLast []float64, sc *bpttScratch) {
	sc.ensure(c.Hidden)
	dh := sc.dh[:c.Hidden]
	dc := sc.dc[:c.Hidden]
	copy(dh, dLast)
	for i := range dc {
		dc[i] = 0
	}
	sp1 := sc.sp1[:c.Hidden]
	sp2 := sc.sp2[:c.Hidden]
	for t := len(steps) - 1; t >= 0; t-- {
		st := &steps[t]
		dhPrev := sp1
		dcPrev := sp2
		for i := range dhPrev {
			dhPrev[i] = 0
			dcPrev[i] = 0
		}
		for u := 0; u < c.Hidden; u++ {
			tanhC := math.Tanh(st.c[u])
			do := dh[u] * tanhC
			dcU := dc[u] + dh[u]*st.o[u]*(1-tanhC*tanhC)
			di := dcU * st.g[u]
			dg := dcU * st.i[u]
			df := dcU * st.cPrev[u]
			dcPrev[u] = dcU * st.f[u]

			// Pre-activation gradients.
			zi := di * st.i[u] * (1 - st.i[u])
			zf := df * st.f[u] * (1 - st.f[u])
			zg := dg * (1 - st.g[u]*st.g[u])
			zo := do * st.o[u] * (1 - st.o[u])

			c.Bi.g[u] += zi
			c.Bf.g[u] += zf
			c.Bg.g[u] += zg
			c.Bo.g[u] += zo

			row := u * (c.In + c.Hidden)
			for k := 0; k < c.In; k++ {
				xv := st.x[k]
				c.Wi.g[row+k] += zi * xv
				c.Wf.g[row+k] += zf * xv
				c.Wg.g[row+k] += zg * xv
				c.Wo.g[row+k] += zo * xv
			}
			for k := 0; k < c.Hidden; k++ {
				hv := st.hPrev[k]
				idx := row + c.In + k
				c.Wi.g[idx] += zi * hv
				c.Wf.g[idx] += zf * hv
				c.Wg.g[idx] += zg * hv
				c.Wo.g[idx] += zo * hv
				dhPrev[k] += zi*c.Wi.W[idx] + zf*c.Wf.W[idx] + zg*c.Wg.W[idx] + zo*c.Wo.W[idx]
			}
		}
		sp1, dh = dh, dhPrev
		sp2, dc = dc, dcPrev
	}
}

// gradSample computes the loss for one sample and accumulates
// gradients into the model's matrices.
func (r *refTrain) gradSample(s Sample) float64 {
	m := r.m
	if r.y == nil {
		r.y = make([]float64, m.cfg.OutputDim)
		r.dy = make([]float64, m.cfg.OutputDim)
		r.dEnc = make([]float64, m.encDim())
	}
	fwSteps, bwSteps, enc := m.encode(s.Seq, &r.es)
	y := r.y
	for o := 0; o < m.cfg.OutputDim; o++ {
		z := m.ob.W[o]
		row := o * len(enc)
		for k, e := range enc {
			z += m.out.W[row+k] * e
		}
		y[o] = z
	}
	loss := 0.0
	dy := r.dy
	for o := range y {
		diff := y[o] - s.Target[o]
		loss += diff * diff
		dy[o] = 2 * diff / float64(m.cfg.OutputDim)
	}
	loss /= float64(m.cfg.OutputDim)

	dEnc := r.dEnc[:len(enc)]
	for i := range dEnc {
		dEnc[i] = 0
	}
	for o := 0; o < m.cfg.OutputDim; o++ {
		m.ob.g[o] += dy[o]
		row := o * len(enc)
		for k, e := range enc {
			m.out.g[row+k] += dy[o] * e
			dEnc[k] += dy[o] * m.out.W[row+k]
		}
	}
	m.fw.backward(fwSteps, dEnc[:m.cfg.Hidden], &r.fwB)
	if m.bw != nil {
		m.bw.backward(bwSteps, dEnc[m.cfg.Hidden:], &r.bwB)
	}
	return loss
}

// ensureReplicas builds or extends the persistent replica set and syncs
// each replica's weights to the master, zeroing its gradient buffers.
func (r *refTrain) ensureReplicas(workers int) {
	for len(r.replicas) < workers {
		r.replicas = append(r.replicas, newRefTrain(r.m.cloneForWorker()))
	}
	for len(r.workerLoss) < workers {
		r.workerLoss = append(r.workerLoss, 0)
	}
	for w := 0; w < workers; w++ {
		for i, mat := range r.replicas[w].m.matrices() {
			copy(mat.W, r.m.mats[i].W)
			mat.zeroGrad()
		}
		r.workerLoss[w] = 0
	}
}

// TrainBatch runs one optimisation step on a batch, spreading gradient
// computation across workers, and returns the mean sample loss.
func (r *refTrain) TrainBatch(batch []Sample, lr float64, workers int) float64 {
	m := r.m
	if len(batch) == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	m.zeroGrad()

	var totalLoss float64
	if workers == 1 {
		for _, s := range batch {
			totalLoss += r.gradSample(s)
		}
	} else {
		r.ensureReplicas(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(batch); i += workers {
					r.workerLoss[w] += r.replicas[w].gradSample(batch[i])
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			totalLoss += r.workerLoss[w]
			for i, mat := range r.replicas[w].m.matrices() {
				addF64(m.mats[i].g, mat.g)
			}
		}
	}

	m.applyStep(lr, len(batch))
	return totalLoss / float64(len(batch))
}

// Fit trains on the dataset through the loop TrainCompiled.Fit uses.
func (r *refTrain) Fit(data []Sample, opt FitOptions) float64 {
	return r.m.fit(data, opt, r.TrainBatch)
}

// cloneForWorker copies the model's weights into a replica with private
// gradient and moment buffers.
func (m *SeqRegressor) cloneForWorker() *SeqRegressor {
	cloneCell := func(c *lstmCell) *lstmCell {
		return &lstmCell{In: c.In, Hidden: c.Hidden,
			Wi: c.Wi.clone(), Wf: c.Wf.clone(), Wg: c.Wg.clone(), Wo: c.Wo.clone(),
			Bi: c.Bi.clone(), Bf: c.Bf.clone(), Bg: c.Bg.clone(), Bo: c.Bo.clone()}
	}
	r := &SeqRegressor{cfg: m.cfg, fw: cloneCell(m.fw), out: m.out.clone(), ob: m.ob.clone()}
	if m.bw != nil {
		r.bw = cloneCell(m.bw)
	}
	r.mats = r.buildMatrices()
	return r
}

// clone returns a matrix sharing no storage with the receiver: weights
// copied, gradient and moments zeroed.
func (m *matrix) clone() *matrix {
	return &matrix{Rows: m.Rows, Cols: m.Cols,
		W: append([]float64(nil), m.W...),
		g: make([]float64, len(m.g)),
		m: make([]float64, len(m.m)),
		v: make([]float64, len(m.v)),
	}
}

// Predict is the allocating form of PredictInto that the tests compare
// against the reference forward pass.
func (c *Compiled) Predict(seq [][]float64) []float64 {
	return c.PredictInto(make([]float64, c.cfg.OutputDim), seq, nil)
}

// L1Norm returns the total absolute weight mass, used to verify the
// regulariser bites.
func (m *SeqRegressor) L1Norm() float64 {
	s := 0.0
	for _, mat := range m.matrices() {
		s += mat.l1Norm()
	}
	return s
}

// l1Norm returns the sum of absolute weights.
func (m *matrix) l1Norm() float64 {
	s := 0.0
	for _, w := range m.W {
		s += math.Abs(w)
	}
	return s
}

// MSE returns the mean squared error over a dataset without training.
func (m *SeqRegressor) MSE(data []Sample) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range data {
		y := m.Predict(s.Seq)
		for o := range y {
			d := y[o] - s.Target[o]
			sum += d * d
		}
	}
	return sum / float64(len(data)*m.cfg.OutputDim)
}
