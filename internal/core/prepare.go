package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/ml/nn"
	"jsrevealer/internal/ml/outlier"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/par"
)

// CheckpointConfig controls training checkpoints. The zero value disables
// checkpointing entirely.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; each stage writes its own file there
	// (see CheckpointPath). Empty disables checkpoint writes.
	Dir string
	// Resume loads the latest valid stage checkpoint from Dir before
	// fitting, skipping every stage it covers. Resume with state from a
	// different corpus or configuration fails loudly; a missing checkpoint
	// simply starts fresh.
	Resume bool
}

// Prepare runs the K-independent training stages: extraction, embedding
// pre-training, script embedding, pooling, and outlier filtering. It is
// PrepareCtx without cancellation.
func Prepare(train []Sample, pretrain []Sample, opts Options) (*Prepared, error) {
	return PrepareCtx(context.Background(), train, pretrain, opts)
}

// PrepareCtx is Prepare with cooperative cancellation: extraction and
// embedding fan-outs, pre-training epochs, and stage boundaries all check
// ctx, so a SIGINT-backed context interrupts a long fit promptly. It is
// PrepareCheckpointed without checkpoints.
func PrepareCtx(ctx context.Context, train []Sample, pretrain []Sample, opts Options) (*Prepared, error) {
	return PrepareCheckpointed(ctx, train, pretrain, opts, CheckpointConfig{})
}

// PrepareCheckpointed is PrepareCtx with stage checkpointing: after path
// extraction, after embedding, and after outlier filtering the pipeline
// state is written to ck.Dir, and with ck.Resume a later run continues from
// the latest stage that completed. Combined with a signal-cancelled ctx this
// makes long fits interruptible: the stages already checkpointed are never
// repeated.
//
// The heavy stages fan out over opts.TrainWorkers goroutines (<= 0 means
// all CPUs). Parallelism is a wall-clock knob only: for a fixed Seed the
// returned Prepared — and any Detector built from it — is bit-identical at
// any worker count and across checkpoint resumes (see Detector.Fingerprint).
func PrepareCheckpointed(ctx context.Context, train []Sample, pretrain []Sample, opts Options, ck CheckpointConfig) (*Prepared, error) {
	if len(train) == 0 {
		return nil, errors.New("core: empty training set")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if pretrain == nil {
		pretrain = train
	}
	workers := par.Workers(opts.TrainWorkers)
	if opts.Embedding.TrainWorkers == 0 {
		// Thread the pipeline worker bound into minibatch pre-training
		// unless the caller pinned it explicitly. With BatchSize <= 1 the
		// knob is inert (per-sample SGD is inherently serial).
		opts.Embedding.TrainWorkers = workers
	}
	model, err := nn.NewModel(opts.Embedding)
	if err != nil {
		return nil, fmt.Errorf("core: embedding: %w", err)
	}
	st := &prepState{
		d:         &Detector{opts: opts, acct: newStageAccount()},
		opts:      opts,
		workers:   workers,
		ck:        ck,
		tm:        newTrainMetrics(ctx, len(pretrain)+len(train)),
		corpusDig: corpusDigest(train, pretrain),
		optsDig:   optionsDigest(opts),
		model:     model,
	}

	var resumed CheckpointStage
	if ck.Resume {
		if ck.Dir == "" {
			return nil, errors.New("core: resume requires a checkpoint directory")
		}
		cj, err := loadLatest(ck.Dir, st.corpusDig, st.optsDig)
		if err != nil {
			return nil, err
		}
		if cj != nil {
			st.restore(cj)
			resumed = cj.Stage
		}
	}
	if resumed == StagePrepared {
		return st.finish(), nil
	}
	if resumed == "" {
		if err := st.runExtract(ctx, train, pretrain); err != nil {
			return nil, err
		}
		if err := st.checkpoint(StageExtracted); err != nil {
			return nil, err
		}
	}
	if resumed == "" || resumed == StageExtracted {
		if err := st.runEmbed(ctx); err != nil {
			return nil, err
		}
		if err := st.checkpoint(StageEmbedded); err != nil {
			return nil, err
		}
	}
	if err := st.runOutlier(ctx); err != nil {
		return nil, err
	}
	p := st.finish()
	if err := st.checkpoint(StagePrepared); err != nil {
		return nil, err
	}
	return p, nil
}

// prepState is the preparation pipeline's mutable state, advanced stage by
// stage. Every field a stage writes is exactly what the matching checkpoint
// serializes, so restore is the inverse of the stages it skips.
type prepState struct {
	d       *Detector // carries stage accounting + parse-failure count
	opts    Options
	workers int
	ck      CheckpointConfig
	tm      *trainMetrics

	corpusDig, optsDig string

	model       *nn.Model
	pre         []scriptKeys // pretrain scripts reduced to path keys
	trainEx     []scriptKeys // training scripts: keys + path strings
	embs        []embedded
	pools       [2]pooled // 0 benign, 1 malicious
	outlierName string
}

// runExtract parses every pretrain and train script and reduces it to path
// keys (stage 1+2 of the paper's pipeline). Scripts fan out over the worker
// pool; each script writes only its own slot, so the collected order — and
// therefore everything downstream — is independent of the worker count. A
// script that fails to parse, or whose extraction panics, is dropped and
// counted as a parse failure, mirroring the scan engine's per-task panic
// isolation.
func (st *prepState) runExtract(ctx context.Context, train, pretrain []Sample) error {
	start := time.Now()
	type slot struct {
		sk scriptKeys
		ok bool
	}
	nPre := len(pretrain)
	results := make([]slot, nPre+len(train))
	err := par.ForCtx(ctx, st.workers, len(results), func(i int) {
		var s Sample
		isTrain := i >= nPre
		if isTrain {
			s = train[i-nPre]
		} else {
			s = pretrain[i]
		}
		sk, ok := st.extractOne(ctx, s, isTrain)
		results[i] = slot{sk: sk, ok: ok}
		st.tm.scriptDone(ok)
	})
	if err != nil {
		return fmt.Errorf("core: extraction interrupted: %w", err)
	}
	st.pre = make([]scriptKeys, 0, nPre)
	st.trainEx = make([]scriptKeys, 0, len(train))
	for i, r := range results {
		if !r.ok {
			st.d.parseFailures++
			continue
		}
		if i < nPre {
			st.pre = append(st.pre, r.sk)
		} else {
			st.trainEx = append(st.trainEx, r.sk)
		}
	}
	if len(st.trainEx) == 0 {
		return errors.New("core: no training script parsed")
	}
	st.tm.stageDone("extract", time.Since(start))
	return nil
}

// extractOne reduces one script to its path keys (and, for training
// scripts, the printable path strings that feed feature provenance). A
// panic anywhere in lexing, parsing, or extraction is contained to this
// script and reported as a failure.
func (st *prepState) extractOne(ctx context.Context, s Sample, wantDescs bool) (sk scriptKeys, ok bool) {
	defer func() {
		if recover() != nil {
			sk, ok = scriptKeys{}, false
		}
	}()
	paths, err := st.d.extract(ctx, s.Source, parser.Limits{})
	if err != nil {
		return scriptKeys{}, false
	}
	sk.Malicious = s.Malicious
	sk.Keys = make([]nn.PathKey, len(paths))
	if wantDescs {
		sk.Descs = make([]string, len(paths))
	}
	for i, p := range paths {
		sk.Keys[i] = st.model.KeyOf(p.ComponentHashes())
		if wantDescs {
			sk.Descs[i] = p.String()
		}
	}
	return sk, true
}

// runEmbed pre-trains the embedding model on the pretrain scripts, embeds
// the training scripts in parallel, and builds the per-class path-vector
// pools (stage 2 of the paper's pipeline). Pooling iterates scripts in
// corpus order, so pool contents are reproducible regardless of how the
// embedding fan-out was scheduled.
func (st *prepState) runEmbed(ctx context.Context) error {
	nnSamples := make([]nn.Sample, len(st.pre))
	for i, sk := range st.pre {
		nnSamples[i] = nn.Sample{Keys: sk.Keys, Malicious: sk.Malicious}
	}
	_, sp := obs.StartSpan(ctx, "pretrain")
	_, err := st.model.TrainCtx(ctx, nnSamples)
	dur := sp.End()
	st.d.record(ctx, stgPreTrain, dur)
	if err != nil {
		return fmt.Errorf("core: pre-training interrupted: %w", err)
	}
	st.tm.stageDone("pretrain", dur)

	_, sp = obs.StartSpan(ctx, "embed")
	st.embs = make([]embedded, len(st.trainEx))
	err = par.ForCtx(ctx, st.workers, len(st.trainEx), func(i int) {
		st.embs[i] = embedded{embs: st.model.Embed(st.trainEx[i].Keys), malicious: st.trainEx[i].Malicious}
	})
	dur = sp.End()
	st.d.record(ctx, stgEmbed, dur)
	if err != nil {
		return fmt.Errorf("core: embedding interrupted: %w", err)
	}
	st.tm.stageDone("embed", dur)

	// Pool per-class path vectors with their path strings.
	st.pools = [2]pooled{}
	for i, e := range st.embs {
		cls := 0
		if e.malicious {
			cls = 1
		}
		for j, emb := range e.embs {
			st.pools[cls].vecs = append(st.pools[cls].vecs, emb.Vector)
			st.pools[cls].descs = append(st.pools[cls].descs, st.trainEx[i].Descs[j])
		}
	}
	for c := 0; c < 2; c++ {
		if st.opts.MaxPoolPerClass > 0 && len(st.pools[c].vecs) > st.opts.MaxPoolPerClass {
			idx := strideSample(len(st.pools[c].vecs), st.opts.MaxPoolPerClass)
			nv := make([][]float64, len(idx))
			nd := make([]string, len(idx))
			for k, i := range idx {
				nv[k] = st.pools[c].vecs[i]
				nd[k] = st.pools[c].descs[i]
			}
			st.pools[c].vecs, st.pools[c].descs = nv, nd
		}
	}
	return nil
}

// runOutlier removes outlying path vectors from both pools (stage 3 of the
// paper's pipeline), with MetaOD-style detector auto-selection when
// configured. Scoring fans out inside the detectors; the kept-index sets
// are bit-identical at any worker count.
func (st *prepState) runOutlier(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var det outlier.Detector = &outlier.FastABOD{Workers: st.workers}
	if st.opts.AutoSelectOutlier {
		sel, err := outlier.SelectDetector(st.pools[0].vecs, outlier.CandidatesWithWorkers(st.workers))
		if err == nil {
			det = sel
		}
	}
	st.outlierName = det.Name()
	_, sp := obs.StartSpan(ctx, "outlier")
	for c := 0; c < 2; c++ {
		kept, err := outlier.Filter(st.pools[c].vecs, det, st.opts.OutlierFraction)
		if err != nil {
			continue // too few points: keep everything
		}
		nv := make([][]float64, len(kept))
		nd := make([]string, len(kept))
		for k, i := range kept {
			nv[k] = st.pools[c].vecs[i]
			nd[k] = st.pools[c].descs[i]
		}
		st.pools[c].vecs, st.pools[c].descs = nv, nd
	}
	dur := sp.End()
	st.d.record(ctx, stgOutlier, dur)
	st.tm.stageDone("outlier", dur)
	return nil
}

// finish assembles the Prepared from the completed (or restored) state.
func (st *prepState) finish() *Prepared {
	return &Prepared{
		opts:                st.opts,
		model:               st.model,
		embs:                st.embs,
		pools:               st.pools,
		OutlierDetectorName: st.outlierName,
		acct:                st.d.acct,
		parseFailures:       st.d.parseFailures,
		corpusDigest:        st.corpusDig,
		optsDigest:          st.optsDig,
	}
}

// restore rehydrates the state a stage checkpoint covers, so the pipeline
// continues exactly where the checkpointed run stopped.
func (st *prepState) restore(cj *checkpointJSON) {
	st.d.parseFailures = cj.ParseFailures
	switch cj.Stage {
	case StageExtracted:
		st.pre = cj.Pretrain
		st.trainEx = cj.Train
		// st.model stays the freshly initialized (untrained) model: it is a
		// pure function of Options.Embedding, identical to the one the
		// checkpointed run hashed paths with (the options digest matched).
	case StageEmbedded, StagePrepared:
		st.model = cj.Model
		st.embs = make([]embedded, len(cj.Embs))
		for i, e := range cj.Embs {
			st.embs[i] = embedded{embs: e.Embs, malicious: e.Malicious}
		}
		if cj.Pools != nil {
			for c := 0; c < 2; c++ {
				st.pools[c] = pooled{vecs: cj.Pools[c].Vecs, descs: cj.Pools[c].Descs}
			}
		}
		st.outlierName = cj.OutlierName
	}
}

// checkpoint serializes the state the given stage has produced into its
// stage file under the configured directory (a no-op without one).
func (st *prepState) checkpoint(stage CheckpointStage) error {
	if st.ck.Dir == "" {
		return nil
	}
	opts := st.opts
	opts.Trainer = nil // interface: not serializable, supplied at Build time
	cj := &checkpointJSON{
		Version:       CheckpointVersion,
		Stage:         stage,
		CorpusDigest:  st.corpusDig,
		OptsDigest:    st.optsDig,
		Options:       opts,
		ParseFailures: st.d.parseFailures,
	}
	switch stage {
	case StageExtracted:
		cj.Pretrain, cj.Train = st.pre, st.trainEx
	case StageEmbedded, StagePrepared:
		cj.Model = st.model
		cj.Embs = make([]embeddedJSON, len(st.embs))
		for i, e := range st.embs {
			cj.Embs[i] = embeddedJSON{Embs: e.embs, Malicious: e.malicious}
		}
		cj.Pools = new([2]pooledJSON)
		for c := 0; c < 2; c++ {
			cj.Pools[c] = pooledJSON{Vecs: st.pools[c].vecs, Descs: st.pools[c].descs}
		}
		cj.OutlierName = st.outlierName
	}
	if err := writeCheckpoint(st.ck.Dir, cj); err != nil {
		return err
	}
	st.tm.checkpointed(stage)
	return nil
}
