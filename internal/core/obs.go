package core

import (
	"context"
	"sync/atomic"
	"time"

	"jsrevealer/internal/obs"
)

// StageDurationMetric is the histogram family receiving one observation
// per pipeline stage per call, labelled by stage. It lands in the registry
// carried by the call's context (obs.Default() otherwise), which is what
// `jsrevealer serve` exposes on /metrics.
const StageDurationMetric = "jsrevealer_stage_duration_seconds"

const stageDurationHelp = "Pipeline stage durations in seconds, per call."

// Per-detector accounting metrics (private registry; see stageAccount).
const (
	stageNanosMetric     = "jsrevealer_detector_stage_nanos_total"
	filesProcessedMetric = "jsrevealer_detector_files_processed_total"
)

// stage enumerates the instrumented pipeline stages. The split is finer
// than StageTimings: lexing vs parsing and data-flow vs traversal are
// separately attributable, and StageTimings sums them back for the
// compatibility view.
type stage int

const (
	stgLex stage = iota
	stgParse
	stgDataFlow
	stgTraverse
	stgPreTrain
	stgEmbed
	stgOutlier
	stgCluster
	stgFit
	stgClassify
	numStages
)

var stageNames = [numStages]string{
	"lex", "parse", "dataflow", "traverse", "pretrain",
	"embed", "outlier", "cluster", "fit", "classify",
}

// RegisterStageMetrics pre-creates every per-stage duration series in reg
// with zero observations, so an exposition endpoint shows the full metric
// surface before the first script is processed.
func RegisterStageMetrics(reg *obs.Registry) {
	for s := stage(0); s < numStages; s++ {
		reg.Histogram(StageDurationMetric, stageDurationHelp,
			obs.DefDurationBuckets, obs.Labels{"stage": stageNames[s]})
	}
}

// observeStage records one stage duration into reg's shared histogram.
func observeStage(reg *obs.Registry, s stage, d time.Duration) {
	reg.Histogram(StageDurationMetric, stageDurationHelp,
		obs.DefDurationBuckets, obs.Labels{"stage": stageNames[s]}).ObserveDuration(d)
}

// stageAccount is a detector's cumulative stage accounting: one counter of
// nanoseconds per stage plus a files-processed counter, held in a private
// registry. This replaces the old mutex-guarded StageTimings field —
// accumulation is now lock-free atomic adds, and StageTimings is derived
// on demand as a read-only view (see stageAccount.view).
type stageAccount struct {
	reg   *obs.Registry
	nanos [numStages]*obs.Counter
	files *obs.Counter
}

func newStageAccount() *stageAccount {
	a := &stageAccount{reg: obs.NewRegistry()}
	for s := stage(0); s < numStages; s++ {
		a.nanos[s] = a.reg.Counter(stageNanosMetric,
			"Cumulative stage time in nanoseconds.", obs.Labels{"stage": stageNames[s]})
	}
	a.files = a.reg.Counter(filesProcessedMetric, "Scripts processed.", nil)
	return a
}

func (a *stageAccount) add(s stage, d time.Duration) { a.nanos[s].Add(int64(d)) }

func (a *stageAccount) addFile() { a.files.Inc() }

// clone returns an independent account seeded with a's current values, so
// detectors built from one Prepared don't share accumulation.
func (a *stageAccount) clone() *stageAccount {
	n := newStageAccount()
	for s := stage(0); s < numStages; s++ {
		n.nanos[s].Add(a.nanos[s].Value())
	}
	n.files.Add(a.files.Value())
	return n
}

// view derives the paper-shaped StageTimings from the counters. The finer
// internal split sums back into the original fields: EnhancedAST is
// lex+parse, PathTraversal is dataflow+traversal.
func (a *stageAccount) view() StageTimings {
	n := func(s stage) time.Duration { return time.Duration(a.nanos[s].Value()) }
	return StageTimings{
		EnhancedAST:    n(stgLex) + n(stgParse),
		PathTraversal:  n(stgDataFlow) + n(stgTraverse),
		PreTraining:    n(stgPreTrain),
		Embedding:      n(stgEmbed),
		OutlierDet:     n(stgOutlier),
		Clustering:     n(stgCluster),
		Training:       n(stgFit),
		Classifying:    n(stgClassify),
		FilesProcessed: int(a.files.Value()),
	}
}

// record charges one stage duration to both the detector's cumulative
// account and the shared per-call histogram of the context's registry.
func (d *Detector) record(ctx context.Context, s stage, dur time.Duration) {
	d.account().add(s, dur)
	observeStage(obs.FromContext(ctx), s, dur)
}

// ---------------------------------------------------------------------------
// Training metrics
// ---------------------------------------------------------------------------

// Training-pipeline metric families, registered in the registry carried by
// the Prepare call's context. A long fit driven through `jsrevealer train`
// (or any caller passing an obs.WithRegistry context) exposes live progress
// through these.
const (
	// TrainStageDurationMetric observes each completed preparation stage's
	// wall-clock once, labelled by stage (extract, pretrain, embed, outlier).
	TrainStageDurationMetric = "jsrevealer_train_stage_duration_seconds"
	// TrainScriptsMetric counts extracted training scripts by result
	// (parsed, failed).
	TrainScriptsMetric = "jsrevealer_train_scripts_total"
	// TrainProgressMetric is the fraction of corpus scripts extracted so
	// far, a 0..1 gauge for dashboards and long-fit sanity checks.
	TrainProgressMetric = "jsrevealer_train_progress_ratio"
	// TrainCheckpointsMetric counts checkpoint files written, by stage.
	TrainCheckpointsMetric = "jsrevealer_train_checkpoints_total"
)

const (
	trainStageDurationHelp = "Completed training-stage durations in seconds."
	trainScriptsHelp       = "Training scripts extracted, by parse result."
	trainProgressHelp      = "Fraction of corpus scripts extracted so far."
	trainCheckpointsHelp   = "Training checkpoints written, by stage."
)

// RegisterTrainMetrics pre-creates the training metric surface in reg so an
// exposition endpoint shows every family before the first stage completes.
func RegisterTrainMetrics(reg *obs.Registry) {
	for _, s := range []string{"extract", "pretrain", "embed", "outlier"} {
		reg.Histogram(TrainStageDurationMetric, trainStageDurationHelp,
			obs.DefDurationBuckets, obs.Labels{"stage": s})
	}
	reg.Counter(TrainScriptsMetric, trainScriptsHelp, obs.Labels{"result": "parsed"})
	reg.Counter(TrainScriptsMetric, trainScriptsHelp, obs.Labels{"result": "failed"})
	reg.Gauge(TrainProgressMetric, trainProgressHelp, nil)
	for _, s := range checkpointStages {
		reg.Counter(TrainCheckpointsMetric, trainCheckpointsHelp, obs.Labels{"stage": string(s)})
	}
}

// trainMetrics instruments one preparation run. Script completions arrive
// from many extraction workers at once, so the done count is atomic and
// everything else routes through the registry's lock-free series.
type trainMetrics struct {
	reg   *obs.Registry
	total int
	done  atomic.Int64
}

// newTrainMetrics binds a run's instrumentation to the context's registry.
func newTrainMetrics(ctx context.Context, totalScripts int) *trainMetrics {
	reg := obs.FromContext(ctx)
	RegisterTrainMetrics(reg)
	return &trainMetrics{reg: reg, total: totalScripts}
}

// scriptDone records one extracted script and advances the progress gauge.
// Safe to call from any extraction worker.
func (t *trainMetrics) scriptDone(parsed bool) {
	result := "parsed"
	if !parsed {
		result = "failed"
	}
	t.reg.Counter(TrainScriptsMetric, trainScriptsHelp, obs.Labels{"result": result}).Inc()
	if t.total > 0 {
		done := t.done.Add(1)
		t.reg.Gauge(TrainProgressMetric, trainProgressHelp, nil).Set(float64(done) / float64(t.total))
	}
}

// stageDone records one completed stage's wall-clock.
func (t *trainMetrics) stageDone(stage string, d time.Duration) {
	t.reg.Histogram(TrainStageDurationMetric, trainStageDurationHelp,
		obs.DefDurationBuckets, obs.Labels{"stage": stage}).ObserveDuration(d)
}

// checkpointed records one checkpoint write.
func (t *trainMetrics) checkpointed(stage CheckpointStage) {
	t.reg.Counter(TrainCheckpointsMetric, trainCheckpointsHelp,
		obs.Labels{"stage": string(stage)}).Inc()
}
