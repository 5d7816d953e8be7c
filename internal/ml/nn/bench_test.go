package nn

import "testing"

// benchModel trains one small model shared by the package benchmarks.
func benchModel(b *testing.B) (*Model, []PathKey) {
	b.Helper()
	cfg := smallConfig()
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.Train(syntheticSamples(cfg, 60, 21))
	// A realistically dense script: a few hundred paths.
	keys := make([]PathKey, 0, 400)
	for len(keys) < 400 {
		keys = append(keys, syntheticSamples(cfg, 1, int64(len(keys)))[0].Keys...)
	}
	return m, keys[:400]
}

// BenchmarkEmbed measures the per-script embedding forward pass, the
// dominant per-file cost of the detect hot path (paper Table VIII's
// "embedding" row).
func BenchmarkEmbed(b *testing.B) {
	m, keys := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if embs := m.Embed(keys); len(embs) != len(keys) {
			b.Fatal("short embed")
		}
	}
}

// BenchmarkPredictProb measures the forward pass without the Embed copy-out,
// i.e. the steady-state allocation floor of the pooled workspace.
func BenchmarkPredictProb(b *testing.B) {
	m, keys := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := m.PredictProb(keys); p < 0 || p > 1 {
			b.Fatal("probability out of range")
		}
	}
}

// BenchmarkTrainStep measures one SGD step with the pooled backward
// temporaries.
func BenchmarkTrainStep(b *testing.B) {
	m, keys := benchModel(b)
	s := Sample{Keys: keys[:40], Malicious: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(s)
	}
}
