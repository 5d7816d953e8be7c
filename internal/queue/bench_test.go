package queue

import (
	"context"
	"strconv"
	"testing"

	"jsrevealer/internal/obs"
)

// BenchmarkQueueCycle measures one job's trip through the queue —
// Enqueue, Next (lease), Ack — on a memory-only queue and on a WAL with
// fsync off, so the number is the state machine plus record encoding and
// the write syscall, not the disk's flush latency.
func BenchmarkQueueCycle(b *testing.B) {
	payload := []byte(`[{"name":"a.js","source":"var a = 1;"}]`)
	for _, mode := range []struct {
		name string
		wal  bool
	}{{"memory", false}, {"wal-nosync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := ""
			if mode.wal {
				dir = b.TempDir()
			}
			q, err := Open(dir, Options{NoSync: true, Registry: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Enqueue(strconv.Itoa(i), 0, payload); err != nil {
					b.Fatal(err)
				}
				l, err := q.Next(ctx, "w")
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Ack(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
