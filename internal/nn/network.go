package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
)

// Config describes a SeqRegressor: a recurrent encoder (LSTM or BiLSTM)
// over an input sequence followed by one fully connected linear layer
// producing a fixed-size regression output — the Figure 3 architecture.
type Config struct {
	InputDim      int     // features per timestep (3 for S-VRF: dlat, dlon, dt)
	Hidden        int     // LSTM units per direction
	OutputDim     int     // regression outputs (12 for S-VRF: 6 x (dlat, dlon))
	Bidirectional bool    // true: BiLSTM with concatenated final states
	L1            float64 // in-layer L1 regularisation strength
	Seed          int64   // weight initialisation seed
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.InputDim <= 0 || c.Hidden <= 0 || c.OutputDim <= 0 {
		return fmt.Errorf("nn: dimensions must be positive: %+v", c)
	}
	return nil
}

// encodeScratch holds the buffers of one interpreted encoder pass: the
// per-direction cell arenas and the concatenated final hidden state.
// One scratch serves one goroutine.
type encodeScratch struct {
	fw, bw cellScratch
	enc    []float64
}

// SeqRegressor maps a variable-length sequence of feature vectors to a
// fixed-size output vector.
type SeqRegressor struct {
	cfg Config
	fw  *lstmCell
	bw  *lstmCell // nil when unidirectional
	out *matrix   // OutputDim x encDim
	ob  *matrix   // OutputDim x 1
	t   int       // Adam timestep
	// clipNorm is set per Fit call from FitOptions.ClipNorm.
	clipNorm float64
	// lastClipped records whether the most recent optimisation step hit
	// the clip bound (training observability).
	lastClipped bool
	// mats caches the matrices() list: the parameter set is fixed at
	// construction, and the hot training loop walks it several times per
	// batch.
	mats []*matrix
}

// NewSeqRegressor builds a model with seeded random initialisation.
func NewSeqRegressor(cfg Config) (*SeqRegressor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &SeqRegressor{cfg: cfg}
	m.fw = newLSTMCell(cfg.InputDim, cfg.Hidden, rng)
	encDim := cfg.Hidden
	if cfg.Bidirectional {
		m.bw = newLSTMCell(cfg.InputDim, cfg.Hidden, rng)
		encDim = 2 * cfg.Hidden
	}
	scale := 1.0 / float64(encDim)
	m.out = newMatrix(cfg.OutputDim, encDim, scale, rng)
	m.ob = newMatrix(cfg.OutputDim, 1, 0, rng)
	m.mats = m.buildMatrices()
	return m, nil
}

// encDim returns the encoder output width.
func (m *SeqRegressor) encDim() int {
	if m.bw != nil {
		return 2 * m.cfg.Hidden
	}
	return m.cfg.Hidden
}

func (m *SeqRegressor) buildMatrices() []*matrix {
	ms := append(m.fw.matrices(), m.out, m.ob)
	if m.bw != nil {
		ms = append(ms, m.bw.matrices()...)
	}
	return ms
}

func (m *SeqRegressor) matrices() []*matrix { return m.mats }

// encode runs the recurrent encoder in the given scratch and returns
// the caches plus the concatenated final hidden state (a slice of
// es.enc, valid until the scratch is reused).
func (m *SeqRegressor) encode(seq [][]float64, es *encodeScratch) (fwSteps, bwSteps []lstmStep, enc []float64) {
	if es.enc == nil {
		es.enc = make([]float64, m.encDim())
	}
	fwSteps = m.fw.forward(seq, false, &es.fw)
	enc = es.enc[:m.encDim()]
	copy(enc[:m.cfg.Hidden], fwSteps[len(fwSteps)-1].h)
	if m.bw != nil {
		bwSteps = m.bw.forward(seq, true, &es.bw)
		copy(enc[m.cfg.Hidden:], bwSteps[len(bwSteps)-1].h)
	}
	return fwSteps, bwSteps, enc
}

// Predict runs a forward pass. It allocates all intermediate state, so
// a single model may serve many goroutines concurrently as long as no
// training step runs at the same time. (Serving goes through the
// Compiled fast path; this is the reference oracle.)
func (m *SeqRegressor) Predict(seq [][]float64) []float64 {
	y := make([]float64, m.cfg.OutputDim)
	if len(seq) == 0 {
		return y
	}
	var es encodeScratch
	_, _, enc := m.encode(seq, &es)
	for o := 0; o < m.cfg.OutputDim; o++ {
		z := m.ob.W[o]
		row := o * len(enc)
		for k, e := range enc {
			z += m.out.W[row+k] * e
		}
		y[o] = z
	}
	return y
}

// Sample is one training example.
type Sample struct {
	Seq    [][]float64
	Target []float64
}

func (m *SeqRegressor) zeroGrad() {
	for _, mat := range m.matrices() {
		mat.zeroGrad()
	}
}

// Adam hyperparameters; fixed to the usual defaults.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// applyStep runs the shared tail of one optimisation step: global-norm
// clipping over the averaged gradient, then the Adam update. The
// compiled plan (and the reference trainer its parity tests run) end
// their batches here, so the optimiser semantics (and the clip
// observability) are one code path. Reports whether the clip bound.
func (m *SeqRegressor) applyStep(lr float64, batchSize int) bool {
	m.t++
	clipped := false
	invBatch := 1.0 / float64(batchSize)
	if m.clipNorm > 0 {
		// Global-norm clipping over the averaged gradient.
		sumSq := 0.0
		for _, mat := range m.matrices() {
			for _, g := range mat.g {
				v := g * invBatch
				sumSq += v * v
			}
		}
		if norm := math.Sqrt(sumSq); norm > m.clipNorm {
			clipped = true
			scale := m.clipNorm / norm
			for _, mat := range m.matrices() {
				for i := range mat.g {
					mat.g[i] *= scale
				}
			}
		}
	}
	for _, mat := range m.matrices() {
		l1 := 0.0
		if mat != m.ob { // no regularisation on biases' counterpart head bias
			l1 = m.cfg.L1
		}
		mat.adamStep(lr, adamBeta1, adamBeta2, adamEps, l1, invBatch, m.t)
	}
	m.lastClipped = clipped
	return clipped
}

// CopyWeightsFrom copies src's weights into m. The two models must
// share the same geometry (input, hidden, output width and
// directionality); regularisation strength and seed may differ.
// Optimiser state (Adam moments, timestep) is deliberately not copied:
// the receiver keeps its own training history, so a warm-started
// retrain behaves like a fresh run from the copied weights.
func (m *SeqRegressor) CopyWeightsFrom(src *SeqRegressor) error {
	if m.cfg.InputDim != src.cfg.InputDim || m.cfg.Hidden != src.cfg.Hidden ||
		m.cfg.OutputDim != src.cfg.OutputDim || m.cfg.Bidirectional != src.cfg.Bidirectional {
		return fmt.Errorf("nn: cannot copy weights from shape %+v into %+v", src.cfg, m.cfg)
	}
	srcMats := src.matrices()
	for i, mat := range m.matrices() {
		copy(mat.W, srcMats[i].W)
	}
	return nil
}

// FitOptions controls TrainCompiled.Fit.
type FitOptions struct {
	Epochs    int
	BatchSize int
	LR        float64
	Workers   int
	Seed      int64 // shuffling seed
	// ClipNorm, when positive, rescales the batch gradient so its
	// global L2 norm does not exceed this value — the standard guard
	// against exploding LSTM gradients. Zero disables clipping.
	ClipNorm float64
	// Progress, when non-nil, is invoked after each epoch with the mean
	// training loss; returning false stops training early.
	Progress func(epoch int, loss float64) bool
	// OnBatch, when non-nil, is invoked after each optimisation step
	// with the number of samples in the batch and whether the clip
	// bound — the training-observability hook.
	OnBatch func(samples int, clipped bool)
}

// fit is the epoch/shuffle/batch loop behind TrainCompiled.Fit and the
// reference trainer its parity tests run: the two differ only in step,
// the batch-step function, so shuffling, batching, progress and
// observability hooks behave identically (and a fixed seed yields the
// same batch order).
func (m *SeqRegressor) fit(data []Sample, opt FitOptions, step func(batch []Sample, lr float64, workers int) float64) float64 {
	if opt.Epochs <= 0 {
		opt.Epochs = 1
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 32
	}
	if opt.LR <= 0 {
		opt.LR = 1e-3
	}
	m.clipNorm = opt.ClipNorm
	rng := rand.New(rand.NewSource(opt.Seed))
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]Sample, 0, opt.BatchSize)
	lastLoss := 0.0
	for e := 0; e < opt.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sum := 0.0
		batches := 0
		for start := 0; start < len(idx); start += opt.BatchSize {
			end := start + opt.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, data[i])
			}
			sum += step(batch, opt.LR, opt.Workers)
			batches++
			if opt.OnBatch != nil {
				opt.OnBatch(len(batch), m.lastClipped)
			}
		}
		if batches > 0 {
			lastLoss = sum / float64(batches)
		}
		if opt.Progress != nil && !opt.Progress(e, lastLoss) {
			break
		}
	}
	return lastLoss
}

// snapshot is the gob-serialisable model state.
type snapshot struct {
	Cfg     Config
	Weights [][]float64
}

// Save writes the model (configuration and weights) to w.
func (m *SeqRegressor) Save(w io.Writer) error {
	snap := snapshot{Cfg: m.cfg}
	for _, mat := range m.matrices() {
		snap.Weights = append(snap.Weights, append([]float64(nil), mat.W...))
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*SeqRegressor, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, err
	}
	m, err := NewSeqRegressor(snap.Cfg)
	if err != nil {
		return nil, err
	}
	mats := m.matrices()
	if len(mats) != len(snap.Weights) {
		return nil, fmt.Errorf("nn: snapshot has %d blocks, model wants %d", len(snap.Weights), len(mats))
	}
	for i, w := range snap.Weights {
		if len(w) != len(mats[i].W) {
			return nil, fmt.Errorf("nn: block %d has %d weights, want %d", i, len(w), len(mats[i].W))
		}
		copy(mats[i].W, w)
	}
	return m, nil
}

// SaveFile saves to a file path atomically.
func (m *SeqRegressor) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile loads a model written by SaveFile.
func LoadFile(path string) (*SeqRegressor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
