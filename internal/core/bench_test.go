package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/js/parser"
)

// benchTrainSamples builds the fixed benchmark corpus once per process.
func benchTrainSamples(b *testing.B) []Sample {
	b.Helper()
	samples := corpus.Generate(corpus.Config{Benign: 40, Malicious: 40, Seed: 9})
	train := make([]Sample, len(samples))
	for i, s := range samples {
		train[i] = Sample{Source: s.Source, Malicious: s.Malicious}
	}
	return train
}

// BenchmarkTrain measures the end-to-end fit (Prepare + Build) at different
// worker counts. The workers=4/workers=1 ratio is the training pipeline's
// parallel speedup; the fitted detector is bit-identical across the
// sub-benchmarks (asserted by TestFingerprintIndependentOfWorkers).
func BenchmarkTrain(b *testing.B) {
	train := benchTrainSamples(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := smallOptions(9)
			opts.Embedding.BatchSize = 8
			opts.TrainWorkers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det, err := Train(train, nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				_ = det
			}
		})
	}
}

// classifyFixture is the detector and prepared scripts BenchmarkClassifyBatch
// shares across its sub-benchmarks: a model at the default (paper-shaped)
// options, and 16 corpus scripts that each hit DefaultMaxPaths (1,200
// paths).
var classifyFixture struct {
	once     sync.Once
	det      *Detector
	prepared []any
	err      error
}

func classifyBench(b *testing.B) (*Detector, []any) {
	b.Helper()
	f := &classifyFixture
	f.once.Do(func() {
		samples := corpus.Generate(corpus.Config{Benign: 30, Malicious: 30, Seed: 7})
		train := make([]Sample, len(samples))
		for i, s := range samples {
			train[i] = Sample{Source: s.Source, Malicious: s.Malicious}
		}
		opts := DefaultOptions()
		opts.Seed, opts.Embedding.Seed = 7, 7
		if f.det, f.err = Train(train, nil, opts); f.err != nil {
			return
		}
		for _, s := range corpus.Generate(corpus.Config{Benign: 8, Malicious: 8, Seed: 99}) {
			p, err := f.det.PrepareBatch(context.Background(), s.Source, parser.Limits{})
			if err != nil {
				f.err = err
				return
			}
			f.prepared = append(f.prepared, p)
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.det, f.prepared
}

// BenchmarkClassifyBatch measures the model's back half per batch: the
// per-path logit and nearest-cluster work, then the per-script softmax,
// feature vector and forest. batch=1 is a single-script scan; batch=16 is
// one scan-driver batch, whose paths partly repeat across scripts.
func BenchmarkClassifyBatch(b *testing.B) {
	det, prepared := classifyBench(b)
	ctx := context.Background()
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			batch := prepared[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.ClassifyBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
