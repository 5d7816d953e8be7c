// Package nn implements the path-embedding model of the JSRevealer paper
// (Section III-C): a fully connected layer with tanh activation maps each
// path to a d-dimensional vector, an attention vector produces per-path
// weights, the attention-weighted sum represents the script, and a softmax
// classifier with cross-entropy loss pre-trains the whole stack on labelled
// scripts.
//
// Paths enter the model as one-hot indices over a hashed vocabulary, so the
// fully connected layer is realised as an embedding table: column W[:,i] of
// the paper's weight matrix is row i of the table.
package nn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"jsrevealer/internal/ml/linalg"
)

// Config holds the model hyper-parameters.
type Config struct {
	// VocabSize is the number of hash buckets for path contexts.
	VocabSize int
	// Dim is the embedding dimension d (the paper uses 300).
	Dim int
	// Epochs is the number of pre-training passes (the paper uses 100).
	Epochs int
	// LearningRate for SGD.
	LearningRate float64
	// WeightDecay is the L2 regularization strength applied to the embedding
	// rows touched by each step; 0 disables.
	WeightDecay float64
	// MinCount is the vocabulary threshold: a path component must occur at
	// least this many times in the pre-training corpus to get its own
	// embedding row; rarer components share a per-slot UNK row. This makes
	// renaming-style obfuscation behave identically at training and test
	// time (fresh names are UNK either way). 0 means 2.
	MinCount int
	// BatchSize selects the pre-training regime. 0 or 1 is plain per-sample
	// SGD — the original, golden-fixture-pinned path. Values > 1 enable
	// minibatch gradient accumulation: per-sample gradients within a batch
	// are computed against the batch-start parameters and applied in sample
	// order, so the result depends on BatchSize but never on TrainWorkers.
	BatchSize int
	// TrainWorkers bounds the goroutines computing per-sample gradients
	// within a minibatch (BatchSize > 1; per-sample SGD is inherently
	// serial). It is a wall-clock knob only: the fit is bit-identical at any
	// worker count. <= 0 means serial. Excluded from serialization —
	// parallelism is runtime configuration, not model state.
	TrainWorkers int `json:"-"`
	// Seed drives weight initialization and shuffling; training is
	// deterministic for a fixed seed.
	Seed int64
}

// DefaultConfig returns a configuration sized for the synthetic corpus: the
// architecture matches the paper; the dimension is reduced from 300 to keep
// CPU pre-training fast (EXPERIMENTS.md records this substitution).
func DefaultConfig() Config {
	return Config{
		VocabSize:    4096,
		Dim:          64,
		Epochs:       8,
		LearningRate: 0.05,
		WeightDecay:  1e-3,
		Seed:         1,
	}
}

// PathKey addresses one path context in the hashed vocabulary by its three
// components (source value, node-type structure, target value). The path's
// embedding is the sum of the three component embeddings, so paths sharing
// values or structure are close in embedding space.
type PathKey struct {
	Src, Struct, Tgt int
}

// Sample is one labelled training script, already reduced to path keys.
type Sample struct {
	Keys []PathKey
	// Malicious is the ground-truth label.
	Malicious bool
}

// Model is the trained path-embedding network.
type Model struct {
	cfg Config
	// embed[i] is the d-vector for vocabulary bucket i (column i of W).
	embed [][]float64
	// known[i] marks buckets that occurred at least MinCount times in the
	// pre-training corpus. In the paper's one-hot formulation a path
	// component outside the training vocabulary has no dedicated
	// representation; here such components share the per-slot unk row, so
	// fresh names introduced by renaming obfuscation look the same at test
	// time as rare names did during training.
	known []bool
	// unk[slot] is the shared embedding for out-of-vocabulary components in
	// slot 0 (source value), 1 (structure), or 2 (target value).
	unk [3][]float64
	// attn is the attention vector a.
	attn []float64
	// clsW is the 2×d softmax classifier weight; clsB its bias.
	clsW [2][]float64
	clsB [2]float64
	// pool recycles forward/backward workspaces across calls and across
	// goroutines, so concurrent Detect traffic reuses buffers instead of
	// allocating per path. Excluded from serialization; the zero value is
	// ready to use, so deserialized models pool too.
	pool sync.Pool
}

// NewModel initializes a model with small random weights.
func NewModel(cfg Config) (*Model, error) {
	if cfg.VocabSize <= 0 || cfg.Dim <= 0 {
		return nil, errors.New("nn: VocabSize and Dim must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}
	scale := 1 / math.Sqrt(float64(cfg.Dim))
	m.embed = make([][]float64, cfg.VocabSize)
	for i := range m.embed {
		row := make([]float64, cfg.Dim)
		for j := range row {
			row[j] = (rng.Float64()*2 - 1) * scale
		}
		m.embed[i] = row
	}
	m.attn = make([]float64, cfg.Dim)
	for j := range m.attn {
		m.attn[j] = (rng.Float64()*2 - 1) * scale
	}
	for s := range m.unk {
		row := make([]float64, cfg.Dim)
		for j := range row {
			row[j] = (rng.Float64()*2 - 1) * scale
		}
		m.unk[s] = row
	}
	for c := 0; c < 2; c++ {
		m.clsW[c] = make([]float64, cfg.Dim)
		for j := range m.clsW[c] {
			m.clsW[c][j] = (rng.Float64()*2 - 1) * scale
		}
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// BucketOf maps a path hash into the model's vocabulary.
func (m *Model) BucketOf(hash uint64) int {
	return int(hash % uint64(m.cfg.VocabSize))
}

// KeyOf maps the three component hashes of a path context into a PathKey.
func (m *Model) KeyOf(src, structure, tgt uint64) PathKey {
	return PathKey{
		Src:    m.BucketOf(src),
		Struct: m.BucketOf(structure),
		Tgt:    m.BucketOf(tgt),
	}
}

// scratch is a reusable forward/backward workspace. The per-path vectors
// live in one flat backing array sliced per path, so one Detect costs a few
// pooled buffers instead of thousands of per-path allocations. All
// accumulation buffers are zeroed before use, which keeps the arithmetic
// bit-identical to the previous freshly-allocated implementation.
type scratch struct {
	keys []PathKey
	// vecFlat backs the per-path vecs slices.
	vecFlat []float64
	pre     []float64   // one path's pre-activation sum, reused per path
	vecs    [][]float64 // tanh outputs p'_i
	scores  []float64   // attention logits
	weights []float64   // attention α_i
	agg     []float64   // v
	logits  [2]float64
	probs   [2]float64 // softmax output
	// Backward temporaries (step only).
	dv, dattn, dp []float64
	dalpha        []float64
}

// grow sizes the workspace for n paths of dimension dim, reusing backing
// arrays whenever they are already large enough.
func (sc *scratch) grow(n, dim int) {
	if need := n * dim; cap(sc.vecFlat) < need {
		sc.vecFlat = make([]float64, need)
	}
	if cap(sc.vecs) < n {
		sc.vecs = make([][]float64, n)
	}
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.weights = make([]float64, n)
		sc.dalpha = make([]float64, n)
	}
	if cap(sc.agg) < dim {
		sc.pre = make([]float64, dim)
		sc.agg = make([]float64, dim)
		sc.dv = make([]float64, dim)
		sc.dattn = make([]float64, dim)
		sc.dp = make([]float64, dim)
	}
	sc.vecs = sc.vecs[:n]
	sc.scores, sc.weights, sc.dalpha = sc.scores[:n], sc.weights[:n], sc.dalpha[:n]
	sc.pre, sc.agg = sc.pre[:dim], sc.agg[:dim]
	sc.dv, sc.dattn, sc.dp = sc.dv[:dim], sc.dattn[:dim], sc.dp[:dim]
}

// getScratch leases a workspace sized for n paths from the model's pool.
func (m *Model) getScratch(n int) *scratch {
	sc, _ := m.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	sc.grow(n, m.cfg.Dim)
	return sc
}

// putScratch returns a workspace to the pool. The caller must not touch sc
// (or anything aliasing its buffers) afterwards: the next Detect on any
// goroutine may reuse it.
func (m *Model) putScratch(sc *scratch) {
	sc.keys = nil
	m.pool.Put(sc)
}

// forward runs the forward pass into sc. Everything the backward pass or
// the caller needs (vecs, weights, agg, probs) stays valid until the
// scratch is returned to the pool.
func (m *Model) forward(keys []PathKey, sc *scratch) {
	sc.keys = keys
	dim := m.cfg.Dim
	linalg.Zero(sc.agg)
	if len(keys) == 0 {
		sc.logits = m.logits(sc.agg)
		linalg.Softmax(sc.logits[:], sc.probs[:])
		return
	}
	for i, key := range keys {
		v := sc.vecFlat[i*dim : (i+1)*dim : (i+1)*dim]
		sc.vecs[i] = v
		sc.scores[i] = m.PathLogit(key, sc.pre, v)
	}
	linalg.Softmax(sc.scores, sc.weights)
	for i, v := range sc.vecs {
		linalg.AXPYInPlace(sc.agg, sc.weights[i], v)
	}
	sc.logits = m.logits(sc.agg)
	linalg.Softmax(sc.logits[:], sc.probs[:])
}

func (m *Model) logits(v []float64) [2]float64 {
	return [2]float64{
		linalg.Dot(m.clsW[0], v) + m.clsB[0],
		linalg.Dot(m.clsW[1], v) + m.clsB[1],
	}
}

// PathLogit is the per-path half of the forward pass, the one definition
// training, Embed and batched classification share: it writes the path's
// pre-activation sum of component rows into pre and its embedding
// tanh(pre) into v (both Dim long, caller-owned), and returns the path's
// attention logit. key may be raw or canonical (CanonicalKey); both embed
// identically. Only the softmax over a script's logits depends on the
// other paths.
func (m *Model) PathLogit(key PathKey, pre, v []float64) float64 {
	linalg.Zero(pre)
	for s, idx := range [3]int{key.Src, key.Struct, key.Tgt} {
		linalg.AddInPlace(pre, m.rowFor(s, idx))
	}
	for j := range v {
		v[j] = math.Tanh(pre[j])
	}
	return linalg.Dot(v, m.attn)
}

// unkIndex marks a component CanonicalKey collapsed to its slot's UNK row.
const unkIndex = -1

// CanonicalKey returns key with every out-of-vocabulary component replaced
// by a per-slot UNK marker. Two keys with the same canonical form resolve
// to the same three rows, so they have bit-identical embeddings and
// logits; a caller can compute PathLogit once per canonical key.
func (m *Model) CanonicalKey(key PathKey) PathKey {
	if m.known == nil {
		return key
	}
	if !m.known[key.Src] {
		key.Src = unkIndex
	}
	if !m.known[key.Struct] {
		key.Struct = unkIndex
	}
	if !m.known[key.Tgt] {
		key.Tgt = unkIndex
	}
	return key
}

// rowFor resolves the embedding row for a component: the bucket's own row
// when in-vocabulary, else the slot's shared UNK row.
func (m *Model) rowFor(slot, idx int) []float64 {
	if idx == unkIndex || (m.known != nil && !m.known[idx]) {
		return m.unk[slot]
	}
	return m.embed[idx]
}

// Train runs SGD over the samples for the configured number of epochs and
// returns the mean cross-entropy loss of the final epoch. The samples also
// define the model's vocabulary: components occurring fewer than MinCount
// times share a per-slot UNK embedding, during training and at inference.
// It is TrainCtx without cancellation.
func (m *Model) Train(samples []Sample) float64 {
	loss, _ := m.TrainCtx(context.Background(), samples)
	return loss
}

// TrainCtx is Train with cooperative cancellation: the epoch and minibatch
// loops check ctx and return early with ctx.Err() once it is done, leaving
// the model in the partially-trained state of the last completed step (the
// caller decides whether to checkpoint or discard it). For a fixed seed the
// fit is deterministic; with BatchSize > 1 it is additionally bit-identical
// at any TrainWorkers count, because per-sample gradients are computed
// against frozen batch-start parameters and applied in sample order.
func (m *Model) TrainCtx(ctx context.Context, samples []Sample) (float64, error) {
	minCount := m.cfg.MinCount
	if minCount <= 0 {
		minCount = 2
	}
	counts := make([]int, m.cfg.VocabSize)
	for _, s := range samples {
		for _, k := range s.Keys {
			counts[k.Src]++
			counts[k.Struct]++
			counts[k.Tgt]++
		}
	}
	m.known = make([]bool, m.cfg.VocabSize)
	for i, c := range counts {
		m.known[i] = c >= minCount
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	lastLoss := 0.0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return lastLoss, err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var err error
		if m.cfg.BatchSize > 1 {
			total, err = m.epochMinibatch(ctx, samples, order)
		} else {
			total, err = m.epochSGD(ctx, samples, order)
		}
		if err != nil {
			return lastLoss, err
		}
		if len(samples) > 0 {
			lastLoss = total / float64(len(samples))
		}
	}
	return lastLoss, nil
}

// epochSGD is one pass of the original per-sample SGD (the golden-pinned
// path), with a cancellation check between samples.
func (m *Model) epochSGD(ctx context.Context, samples []Sample, order []int) (float64, error) {
	total := 0.0
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		total += m.step(samples[idx])
	}
	return total, nil
}

// step performs one SGD update and returns the sample's loss.
func (m *Model) step(s Sample) float64 {
	sc := m.getScratch(len(s.Keys))
	defer m.putScratch(sc)
	m.forward(s.Keys, sc)
	label := 0
	if s.Malicious {
		label = 1
	}
	loss := -math.Log(math.Max(sc.probs[label], 1e-12))
	if len(s.Keys) == 0 {
		return loss
	}

	lr := m.cfg.LearningRate
	// dlogits = probs - onehot(label)
	var dlogits [2]float64
	dlogits[0] = sc.probs[0]
	dlogits[1] = sc.probs[1]
	dlogits[label] -= 1

	// Classifier gradients and dv.
	dv := sc.dv
	linalg.Zero(dv)
	for c := 0; c < 2; c++ {
		linalg.AXPYInPlace(dv, dlogits[c], m.clsW[c])
		linalg.AXPYInPlace(m.clsW[c], -lr*dlogits[c], sc.agg)
		m.clsB[c] -= lr * dlogits[c]
	}

	// Attention backward.
	dalpha := sc.dalpha
	for i, v := range sc.vecs {
		dalpha[i] = linalg.Dot(dv, v)
	}
	// softmax jacobian: ds_i = α_i (dα_i - Σ_j α_j dα_j)
	meanD := 0.0
	for i := range dalpha {
		meanD += sc.weights[i] * dalpha[i]
	}
	dattn := sc.dattn
	linalg.Zero(dattn)
	for i, v := range sc.vecs {
		ds := sc.weights[i] * (dalpha[i] - meanD)
		// dp_i = α_i dv + ds_i * a
		dp := sc.dp
		linalg.Zero(dp)
		linalg.AXPYInPlace(dp, sc.weights[i], dv)
		linalg.AXPYInPlace(dp, ds, m.attn)
		linalg.AXPYInPlace(dattn, ds, v)
		// Through tanh into the three component embedding rows (the path's
		// pre-activation is their sum, so each receives the same gradient).
		key := sc.keys[i]
		for s, rowIdx := range [3]int{key.Src, key.Struct, key.Tgt} {
			row := m.rowFor(s, rowIdx)
			for j := range row {
				g := dp[j]*(1-v[j]*v[j]) + m.cfg.WeightDecay*row[j]
				row[j] -= lr * g
			}
		}
	}
	linalg.AXPYInPlace(m.attn, -lr, dattn)
	return loss
}

// Embedding is the per-path output of a trained model: the embedded vector
// and its attention weight within the script.
type Embedding struct {
	Vector []float64
	Weight float64
}

// Embed maps a script's path keys to per-path embeddings and weights. The
// returned slice is parallel to keys. Vectors are copied out of the pooled
// forward workspace into one flat caller-owned backing array, so the result
// stays valid (and embeddings stay independent of each other) across
// subsequent Embed/Detect calls on any goroutine.
func (m *Model) Embed(keys []PathKey) []Embedding {
	sc := m.getScratch(len(keys))
	defer m.putScratch(sc)
	m.forward(keys, sc)
	out := make([]Embedding, len(keys))
	dim := m.cfg.Dim
	flat := make([]float64, len(keys)*dim)
	for i := range keys {
		v := flat[i*dim : (i+1)*dim : (i+1)*dim]
		copy(v, sc.vecs[i])
		out[i] = Embedding{Vector: v, Weight: sc.weights[i]}
	}
	return out
}

// PredictProb returns the model's own malicious probability for a script,
// used for diagnostics (the full pipeline classifies with the random forest).
func (m *Model) PredictProb(keys []PathKey) float64 {
	sc := m.getScratch(len(keys))
	defer m.putScratch(sc)
	m.forward(keys, sc)
	return sc.probs[1]
}

// modelJSON is the serialization envelope.
type modelJSON struct {
	Config Config      `json:"config"`
	Embed  [][]float64 `json:"embed"`
	Known  []bool      `json:"known"`
	Unk    [][]float64 `json:"unk"`
	Attn   []float64   `json:"attn"`
	ClsW   [][]float64 `json:"clsW"`
	ClsB   []float64   `json:"clsB"`
}

// MarshalJSON serializes the model.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Config: m.cfg,
		Embed:  m.embed,
		Known:  m.known,
		Unk:    [][]float64{m.unk[0], m.unk[1], m.unk[2]},
		Attn:   m.attn,
		ClsW:   [][]float64{m.clsW[0], m.clsW[1]},
		ClsB:   []float64{m.clsB[0], m.clsB[1]},
	})
}

// UnmarshalJSON deserializes the model.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return err
	}
	if len(mj.ClsW) != 2 || len(mj.ClsB) != 2 {
		return fmt.Errorf("nn: malformed model: %d classifier rows", len(mj.ClsW))
	}
	m.cfg = mj.Config
	m.embed = mj.Embed
	m.known = mj.Known
	if len(mj.Unk) == 3 {
		m.unk[0], m.unk[1], m.unk[2] = mj.Unk[0], mj.Unk[1], mj.Unk[2]
	}
	m.attn = mj.Attn
	m.clsW[0], m.clsW[1] = mj.ClsW[0], mj.ClsW[1]
	m.clsB[0], m.clsB[1] = mj.ClsB[0], mj.ClsB[1]
	return nil
}
