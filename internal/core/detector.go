// Package core implements the JSRevealer pipeline: path extraction over the
// enhanced AST, attention-based path embedding, outlier-filtered clustering
// into semantic features, and random-forest classification (Section III of
// the paper).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jsrevealer/internal/js/ast"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/ml/classify"
	"jsrevealer/internal/ml/cluster"
	"jsrevealer/internal/ml/linalg"
	"jsrevealer/internal/ml/nn"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/par"
	"jsrevealer/internal/pathctx"
)

// Options configures the pipeline. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Path controls path-context extraction (enhanced vs regular AST,
	// length/width bounds).
	Path pathctx.Options
	// Embedding configures the attention embedding network.
	Embedding nn.Config
	// KBenign and KMalicious are the clustering K values; the paper's tuned
	// values are 11 and 10 on the enhanced AST (5 and 6 on the regular AST).
	KBenign, KMalicious int
	// OutlierFraction is the share of path vectors removed as outliers
	// before clustering.
	OutlierFraction float64
	// AutoSelectOutlier, when true, picks the outlier detector with the
	// MetaOD-style selector; otherwise FastABOD is used directly.
	AutoSelectOutlier bool
	// OverlapThreshold removes benign/malicious cluster pairs whose
	// centroid cosine similarity exceeds it (1.0 disables removal; the
	// paper observes no removals at its tuned K values).
	OverlapThreshold float64
	// MaxPoolPerClass caps the per-class path-vector pool fed to outlier
	// detection and clustering.
	MaxPoolPerClass int
	// Trainer builds the final classifier; nil means the paper's random
	// forest.
	Trainer classify.Trainer
	// UniformWeights replaces the attention weights with uniform 1/n per
	// path during featurization — the ablation of the paper's claim that
	// attention importance is what the cluster features should accumulate.
	UniformWeights bool
	// Seed drives all pipeline randomness.
	Seed int64
	// TrainWorkers bounds the goroutines used by the parallel training
	// stages (path extraction, script embedding, outlier scoring, K-Means
	// assignment, and — via Embedding.TrainWorkers when that is unset —
	// minibatch gradient computation). <= 0 means all CPUs. It is a
	// wall-clock knob only: for a fixed Seed the fitted detector is
	// bit-identical at any worker count (see Detector.Fingerprint).
	TrainWorkers int
}

// DefaultOptions returns the paper's configuration (enhanced AST, K=11/10,
// FastABOD via auto-selection, random forest).
func DefaultOptions() Options {
	return Options{
		Path:              pathctx.DefaultOptions(),
		Embedding:         nn.DefaultConfig(),
		KBenign:           11,
		KMalicious:        10,
		OutlierFraction:   0.05,
		AutoSelectOutlier: true,
		OverlapThreshold:  0.98,
		MaxPoolPerClass:   2500,
		Seed:              1,
	}
}

// RegularASTOptions returns the Table IV ablation configuration: no data
// flow, with the K values the paper tunes for the regular AST.
func RegularASTOptions() Options {
	o := DefaultOptions()
	o.Path.UseDataFlow = false
	o.KBenign = 5
	o.KMalicious = 6
	return o
}

// Sample is one labelled training script.
type Sample struct {
	Source    string
	Malicious bool
}

// Feature is one learned cluster feature with its provenance, the unit of
// the paper's interpretability analysis (Table VII).
type Feature struct {
	// Centroid is the cluster centre in embedding space.
	Centroid []float64
	// FromMalicious records which class's clustering produced the feature.
	FromMalicious bool
	// CentralPath is the stored path context nearest to the centroid.
	CentralPath string
}

// StageTimings is the per-stage wall-clock accounting behind the paper's
// Table VIII. It is no longer accumulated in place: Detector.Timings()
// derives it on demand from the detector's registry-backed stage counters
// (see internal/core/obs.go), so reading it never contends with in-flight
// detections.
type StageTimings struct {
	EnhancedAST   time.Duration
	PathTraversal time.Duration
	PreTraining   time.Duration
	Embedding     time.Duration
	OutlierDet    time.Duration
	Clustering    time.Duration
	Training      time.Duration
	Classifying   time.Duration
	// FilesProcessed normalizes extraction/embedding/classifying times.
	FilesProcessed int
}

// Detector is a trained JSRevealer instance.
type Detector struct {
	opts       Options
	model      *nn.Model
	features   []Feature
	classifier classify.Classifier
	// OutlierDetectorName records which detector the meta-selection chose.
	OutlierDetectorName string
	// acct is the registry-backed cumulative stage accounting; Timings()
	// is its compatibility view. Accumulation is lock-free, so Detect is
	// safe to call from many goroutines at once.
	acct     *stageAccount
	acctOnce sync.Once
	// centroidView is the lazily built slice-of-centroids view over features
	// that featurize shares across calls; features are immutable once the
	// detector is constructed (Build or deserialization), so building the
	// view once is safe under concurrent Detect calls.
	centroidView  [][]float64
	centroidsOnce sync.Once
	// parseFailures counts training scripts that failed to parse.
	parseFailures int
}

// account returns the detector's stage accounting, creating it lazily for
// detectors not built through Prepare/Build (e.g. deserialized ones).
func (d *Detector) account() *stageAccount {
	d.acctOnce.Do(func() {
		if d.acct == nil {
			d.acct = newStageAccount()
		}
	})
	return d.acct
}

// Timings returns the cumulative per-stage wall-clock view, Table VIII's
// data. It reads atomic counters, so it is safe (and consistent enough for
// reporting) while detections are in flight.
func (d *Detector) Timings() StageTimings { return d.account().view() }

// ErrNotTrained is returned by Detect on an untrained detector.
var ErrNotTrained = errors.New("core: detector not trained")

// extracted is a parsed script reduced to embeddings.
type extracted struct {
	paths     []pathctx.Path
	keys      []nn.PathKey
	malicious bool
}

// embedded is one training script reduced to its path embeddings.
type embedded struct {
	embs      []nn.Embedding
	malicious bool
}

// pooled is a per-class pool of path vectors with their path strings.
type pooled struct {
	vecs  [][]float64
	descs []string
}

// Prepared holds the K-independent training state: the pre-trained
// embedding model, the embedded training scripts, and the outlier-filtered
// per-class path-vector pools. A Prepared can Build detectors for many
// (K, classifier) combinations without repeating extraction, pre-training,
// or outlier detection — which is how the paper's Table II (classifier
// comparison), Table III (K sweep), and Figure 5 (elbow curves) reuse one
// training pass.
type Prepared struct {
	opts  Options
	model *nn.Model
	embs  []embedded
	pools [2]pooled
	// OutlierDetectorName records the MetaOD-style selection outcome.
	OutlierDetectorName string
	// acct holds the preparation stages' registry-backed accounting; every
	// Build seeds its detector with an independent copy.
	acct *stageAccount
	// parseFailures counts unparseable training scripts.
	parseFailures int
	// corpusDigest and optsDigest fingerprint the inputs this Prepared was
	// fitted on; checkpoint resume refuses state from a different corpus or
	// configuration (see checkpoint.go).
	corpusDigest, optsDigest string
}

// Timings returns the cumulative preparation-stage wall-clock view.
func (p *Prepared) Timings() StageTimings { return p.acct.view() }

// PoolVectors returns the outlier-filtered path-vector pool of one class,
// the input to the Figure 5 elbow curves.
func (p *Prepared) PoolVectors(malicious bool) [][]float64 {
	c := 0
	if malicious {
		c = 1
	}
	return p.pools[c].vecs
}

// ParseFailures reports how many training scripts failed to parse.
func (p *Prepared) ParseFailures() int { return p.parseFailures }

// Train builds a detector with the options' K values and classifier.
// pretrain supplies the labelled scripts for embedding pre-training (the
// paper uses 5,000 additional samples); when nil, the training set itself
// is reused.
func Train(train []Sample, pretrain []Sample, opts Options) (*Detector, error) {
	p, err := Prepare(train, pretrain, opts)
	if err != nil {
		return nil, err
	}
	return p.Build(opts.KBenign, opts.KMalicious, opts.Trainer)
}

// Build finishes training: Bisecting K-Means clustering with the given K
// values, overlap removal, featurization of the training scripts, and
// classifier fitting. A nil trainer selects the paper's random forest.
// Clustering and featurization parallelize over the Prepared options'
// TrainWorkers; the built detector is bit-identical at any worker count.
func (p *Prepared) Build(kBenign, kMalicious int, trainer classify.Trainer) (*Detector, error) {
	d := &Detector{
		opts:                p.opts,
		model:               p.model,
		OutlierDetectorName: p.OutlierDetectorName,
		acct:                p.acct.clone(),
		parseFailures:       p.parseFailures,
	}
	d.opts.KBenign, d.opts.KMalicious = kBenign, kMalicious

	ctx := context.Background()
	_, sp := obs.StartSpan(ctx, "cluster")
	ks := [2]int{kBenign, kMalicious}
	var feats []Feature
	for c := 0; c < 2; c++ {
		if len(p.pools[c].vecs) < ks[c] {
			return nil, fmt.Errorf("core: class %d has %d path vectors, need >= %d",
				c, len(p.pools[c].vecs), ks[c])
		}
		res, err := cluster.BisectingKMeansWorkers(p.pools[c].vecs, ks[c], p.opts.Seed+int64(c), p.opts.TrainWorkers)
		if err != nil {
			return nil, fmt.Errorf("core: clustering: %w", err)
		}
		for ci, centroid := range res.Centroids {
			feats = append(feats, Feature{
				Centroid:      centroid,
				FromMalicious: c == 1,
				CentralPath:   nearestDesc(centroid, p.pools[c].vecs, p.pools[c].descs, res.Assignments, ci),
			})
		}
	}
	d.record(ctx, stgCluster, sp.End())

	// Remove overlapping benign/malicious cluster pairs.
	d.features = removeOverlaps(feats, p.opts.OverlapThreshold)

	// Stage 4: featurize training scripts and fit the classifier. Each
	// script's feature vector is an independent function of the frozen
	// features, so the fan-out is bit-identical at any worker count.
	featVecs := make([][]float64, len(p.embs))
	labels := make([]bool, len(p.embs))
	par.For(p.opts.TrainWorkers, len(p.embs), func(i int) {
		featVecs[i] = d.featurize(p.embs[i].embs)
		labels[i] = p.embs[i].malicious
	})
	if trainer == nil {
		trainer = &classify.RandomForestTrainer{Seed: p.opts.Seed}
	}
	_, sp = obs.StartSpan(ctx, "fit")
	clf, err := trainer.Train(featVecs, labels)
	if err != nil {
		return nil, fmt.Errorf("core: classifier: %w", err)
	}
	d.record(ctx, stgFit, sp.End())
	d.classifier = clf
	return d, nil
}

// Name identifies the detector in comparative experiments.
func (d *Detector) Name() string { return "JSRevealer" }

// extract parses a script under the given limits and extracts its path
// contexts: parse followed by ExtractPaths.
func (d *Detector) extract(ctx context.Context, src string, lim parser.Limits) (extracted, error) {
	prog, err := d.parse(ctx, src, lim)
	if err != nil {
		return extracted{}, err
	}
	return extracted{paths: d.ExtractPaths(ctx, prog)}, nil
}

// parse lexes and parses a script under the given limits, attributing lex
// and parse time separately to the stage instruments under a "parse" span
// nested in whatever span ctx already carries.
func (d *Detector) parse(ctx context.Context, src string, lim parser.Limits) (*ast.Program, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	prog, ptm, err := parser.ParseTimed(src, lim)
	sp.End()
	d.record(ctx, stgLex, ptm.Lex)
	d.record(ctx, stgParse, ptm.Parse)
	return prog, err
}

// ExtractPaths extracts prog's path contexts with the detector's path
// options (PathOptions), attributing data-flow and traversal time to the
// stage instruments under a "pathctx" span. It is the second step of
// PrepareBatch, exported so a caller that already holds the parsed program
// — the scan engine shares one parse between the rules layer and the model
// — extracts once.
func (d *Detector) ExtractPaths(ctx context.Context, prog *ast.Program) []pathctx.Path {
	_, sp := obs.StartSpan(ctx, "pathctx")
	paths, xtm := pathctx.ExtractTimed(prog, d.opts.Path)
	sp.End()
	d.record(ctx, stgDataFlow, xtm.DataFlow)
	d.record(ctx, stgTraverse, xtm.Traversal)
	d.account().addFile()
	return paths
}

// PathOptions reports the path-extraction options ExtractPaths uses.
func (d *Detector) PathOptions() pathctx.Options { return d.opts.Path }

// keysOf reduces path contexts to the model's vocabulary keys.
func (d *Detector) keysOf(paths []pathctx.Path) []nn.PathKey {
	keys := make([]nn.PathKey, len(paths))
	for i, p := range paths {
		keys[i] = d.model.KeyOf(p.ComponentHashes())
	}
	return keys
}

// featurize converts a script's path embeddings into the cluster-feature
// vector: the attention weight of each path accrues to the feature whose
// centroid is nearest, then the vector is min-max normalized (Equation 6).
func (d *Detector) featurize(embs []nn.Embedding) []float64 {
	v := make([]float64, len(d.features))
	if len(d.features) == 0 {
		return v
	}
	centroids := d.centroids()
	uniform := 0.0
	if d.opts.UniformWeights && len(embs) > 0 {
		uniform = 1 / float64(len(embs))
	}
	for _, e := range embs {
		idx := cluster.Assign(centroids, e.Vector)
		if idx < 0 {
			continue
		}
		if d.opts.UniformWeights {
			v[idx] += uniform
		} else {
			v[idx] += e.Weight
		}
	}
	return linalg.MinMaxNormalize(v)
}

// centroids returns the shared centroid view used by featurize, built once
// on first use.
func (d *Detector) centroids() [][]float64 {
	d.centroidsOnce.Do(func() {
		d.centroidView = make([][]float64, len(d.features))
		for i, f := range d.features {
			d.centroidView[i] = f.Centroid
		}
	})
	return d.centroidView
}

// Detect classifies a script; true means malicious.
func (d *Detector) Detect(src string) (bool, error) {
	return d.DetectWithLimits(context.Background(), src, parser.Limits{})
}

// DetectCtx classifies a script honouring the context's deadline and
// cancellation (checked cooperatively between and inside pipeline stages).
// It is safe to call from many goroutines concurrently.
func (d *Detector) DetectCtx(ctx context.Context, src string) (bool, error) {
	return d.DetectWithLimits(ctx, src, parser.Limits{})
}

// DetectWithLimits classifies a script under explicit parser resource
// limits. When lim.Cancel is nil the context's Done channel is used, so a
// deadline on ctx aborts even a parse of pathological input promptly.
func (d *Detector) DetectWithLimits(ctx context.Context, src string, lim parser.Limits) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "detect")
	defer sp.End()
	// Unparseable input is suspicious but the paper's pipeline simply
	// cannot featurize it; surface the error to the caller.
	prog, err := d.ParseProgram(ctx, src, lim)
	if err != nil {
		return false, err
	}
	paths := d.ExtractPaths(ctx, prog)
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, esp := obs.StartSpan(ctx, "embed")
	embs := d.model.Embed(d.keysOf(paths))
	d.record(ctx, stgEmbed, esp.End())

	_, csp := obs.StartSpan(ctx, "classify")
	feat := d.featurize(embs)
	verdict := d.classifier.Predict(feat)
	d.record(ctx, stgClassify, csp.End())
	return verdict, nil
}

// PreparedScript is the front half of one script's detection — parsed,
// path-extracted, reduced to vocabulary keys — awaiting the batched
// embed/classify back half. Produced by PrepareBatch, consumed by
// ClassifyBatch; opaque to callers in between.
type PreparedScript struct {
	keys []nn.PathKey
}

// PrepareBatch runs the per-script front half of the pipeline (parse, path
// extraction, vocabulary lookup) under the same limits and cancellation
// semantics as DetectWithLimits and returns the prepared state for a later
// ClassifyBatch. Splitting detection this way lets a scanner parse scripts
// concurrently, then share the model's per-path work across the whole
// batch; the PrepareBatch + ClassifyBatch sequence is verdict-identical to
// calling DetectWithLimits per script (TestClassifyBatchMatchesReference).
// It is ParseProgram, ExtractPaths and PreparePaths in sequence, under one
// "detect" span.
func (d *Detector) PrepareBatch(ctx context.Context, src string, lim parser.Limits) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "detect")
	defer sp.End()
	prog, err := d.ParseProgram(ctx, src, lim)
	if err != nil {
		return nil, err
	}
	return d.PreparePaths(d.ExtractPaths(ctx, prog)), nil
}

// ParseProgram is PrepareBatch's first step: it parses src under lim (with
// ctx's Done channel as the cancel signal when lim.Cancel is nil),
// recording the lex and parse stages under a "parse" span.
func (d *Detector) ParseProgram(ctx context.Context, src string, lim parser.Limits) (*ast.Program, error) {
	if d.classifier == nil {
		return nil, ErrNotTrained
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if lim.Cancel == nil {
		lim.Cancel = ctx.Done()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := d.parse(ctx, src, lim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return prog, nil
}

// PreparePaths is PrepareBatch's last step: it reduces a script's path
// contexts — ExtractPaths' output — to the prepared state ClassifyBatch
// consumes.
func (d *Detector) PreparePaths(paths []pathctx.Path) any {
	return &PreparedScript{keys: d.keysOf(paths)}
}

// ClassifyBatch finishes a batch of prepared scripts in two phases without
// materializing a single embedding vector. Phase 1 ("embed") computes each
// distinct canonical path key of the whole batch once: its attention logit
// and its nearest cluster feature. Phase 2 ("classify") runs, per script,
// the softmax over its logits in path order, accrues each weight to its
// path's cluster, normalizes and predicts. The result slice is parallel to
// prepared, and every feature vector is bit-identical to featurize(Embed)
// (TestClassifyBatchMatchesReference). Stage time accrues to ctx's span
// tree once per batch rather than once per script.
func (d *Detector) ClassifyBatch(ctx context.Context, prepared []any) ([]bool, error) {
	if d.classifier == nil {
		return nil, ErrNotTrained
	}
	if ctx == nil {
		ctx = context.Background()
	}
	keySets := make([][]nn.PathKey, len(prepared))
	for i, p := range prepared {
		ps, ok := p.(*PreparedScript)
		if !ok {
			return nil, fmt.Errorf("core: ClassifyBatch element %d is %T, not *PreparedScript", i, p)
		}
		keySets[i] = ps.keys
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, esp := obs.StartSpan(ctx, "embed")
	pt := d.newPathTable(keySets)
	d.record(ctx, stgEmbed, esp.End())

	_, csp := obs.StartSpan(ctx, "classify")
	out := make([]bool, len(prepared))
	for i := range keySets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = d.classifier.Predict(pt.features(i))
	}
	d.record(ctx, stgClassify, csp.End())
	return out, nil
}

// pathTable is ClassifyBatch's per-call state: the per-path work of one
// batch, done once per distinct canonical key. It lives for one call only.
type pathTable struct {
	d *Detector
	// logit[u] and cluster[u] belong to the u-th distinct key; cluster is
	// cluster.Assign's feature index (-1 without features).
	logit   []float64
	cluster []int
	// scripts[i] lists script i's paths, in order, as distinct-key indexes.
	scripts [][]int32
}

// newPathTable runs phase 1 over every path of the batch.
func (d *Detector) newPathTable(keySets [][]nn.PathKey) *pathTable {
	total := 0
	for _, keys := range keySets {
		total += len(keys)
	}
	pt := &pathTable{
		d:       d,
		logit:   make([]float64, 0, total),
		cluster: make([]int, 0, total),
		scripts: make([][]int32, len(keySets)),
	}
	refs := make([]int32, total)
	dim := d.model.Config().Dim
	pre, v := make([]float64, dim), make([]float64, dim)
	centroids := d.centroids()
	index := make(map[nn.PathKey]int32, total)
	for i, keys := range keySets {
		pt.scripts[i], refs = refs[:len(keys):len(keys)], refs[len(keys):]
		for j, key := range keys {
			ck := d.model.CanonicalKey(key)
			u, seen := index[ck]
			if !seen {
				u = int32(len(pt.logit))
				index[ck] = u
				pt.logit = append(pt.logit, d.model.PathLogit(ck, pre, v))
				pt.cluster = append(pt.cluster, cluster.Assign(centroids, v))
			}
			pt.scripts[i][j] = u
		}
	}
	return pt
}

// features is phase 2 for script i: Equation 6 over the table, summing in
// path order exactly as featurize does over Embed's output.
func (pt *pathTable) features(i int) []float64 {
	d, refs := pt.d, pt.scripts[i]
	v := make([]float64, len(d.features))
	if len(d.features) == 0 || len(refs) == 0 {
		return linalg.MinMaxNormalize(v)
	}
	var weights []float64
	if !d.opts.UniformWeights {
		scores := make([]float64, len(refs))
		for j, u := range refs {
			scores[j] = pt.logit[u]
		}
		weights = linalg.Softmax(scores, nil)
	}
	uniform := 1 / float64(len(refs))
	for j, u := range refs {
		idx := pt.cluster[u]
		if idx < 0 {
			continue
		}
		if weights == nil {
			v[idx] += uniform
		} else {
			v[idx] += weights[j]
		}
	}
	return linalg.MinMaxNormalize(v)
}

// DetectProgram classifies an already-parsed program (used by benchmarks to
// separate parsing cost from pipeline cost).
func (d *Detector) DetectProgram(prog *ast.Program) (bool, error) {
	if d.classifier == nil {
		return false, ErrNotTrained
	}
	embs := d.model.Embed(d.keysOf(pathctx.Extract(prog, d.opts.Path)))
	return d.classifier.Predict(d.featurize(embs)), nil
}

// Features returns the learned cluster features.
func (d *Detector) Features() []Feature {
	out := make([]Feature, len(d.features))
	copy(out, d.features)
	return out
}

// Options returns the detector's configuration.
func (d *Detector) Options() Options { return d.opts }

// ParseFailures reports how many training scripts failed to parse.
func (d *Detector) ParseFailures() int { return d.parseFailures }

// ImportantFeature pairs a feature with its random-forest importance.
type ImportantFeature struct {
	Feature
	Importance float64
	// Index is the feature's position in the feature vector.
	Index int
}

// Explain returns the top-n features by random-forest Gini importance — the
// paper's Table VII interpretability output. It returns an error when the
// classifier is not a random forest.
func (d *Detector) Explain(n int) ([]ImportantFeature, error) {
	rf, ok := d.classifier.(*classify.RandomForest)
	if !ok {
		return nil, errors.New("core: interpretability requires the random-forest classifier")
	}
	imps := rf.FeatureImportances()
	out := make([]ImportantFeature, 0, len(imps))
	for i, imp := range imps {
		if i >= len(d.features) {
			break
		}
		out = append(out, ImportantFeature{Feature: d.features[i], Importance: imp, Index: i})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Importance > out[b].Importance })
	if n < len(out) {
		out = out[:n]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// strideSample returns n evenly spaced indices over [0, total).
func strideSample(total, n int) []int {
	out := make([]int, 0, n)
	stride := float64(total) / float64(n)
	pos := 0.0
	for len(out) < n {
		idx := int(pos)
		if idx >= total {
			break
		}
		out = append(out, idx)
		pos += stride
	}
	return out
}

// nearestDesc finds the path string of the member vector closest to the
// centroid within cluster ci.
func nearestDesc(centroid []float64, vecs [][]float64, descs []string, assignments []int, ci int) string {
	best, bestD := -1, 0.0
	for i, v := range vecs {
		if assignments[i] != ci {
			continue
		}
		dd := linalg.SquaredDistance(centroid, v)
		if best == -1 || dd < bestD {
			best, bestD = i, dd
		}
	}
	if best == -1 {
		return ""
	}
	return descs[best]
}

// removeOverlaps drops benign/malicious feature pairs whose centroids are
// nearly identical (cosine similarity above the threshold).
func removeOverlaps(feats []Feature, threshold float64) []Feature {
	if threshold >= 1.0 {
		return feats
	}
	drop := make([]bool, len(feats))
	for i := 0; i < len(feats); i++ {
		for j := i + 1; j < len(feats); j++ {
			if feats[i].FromMalicious == feats[j].FromMalicious {
				continue
			}
			if linalg.CosineSimilarity(feats[i].Centroid, feats[j].Centroid) > threshold {
				drop[i], drop[j] = true, true
			}
		}
	}
	out := feats[:0]
	for i, f := range feats {
		if !drop[i] {
			out = append(out, f)
		}
	}
	return out
}
