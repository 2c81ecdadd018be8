package metrics

import (
	"math"
	"testing"
)

// BenchmarkHistogramRecord is the per-command latency record the server
// makes for every request (Latency.RecordDuration), over 64 values spread
// log-evenly from 1 µs to 10 ms. It must stay allocation-free.
func BenchmarkHistogramRecord(b *testing.B) {
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(math.Round(1e3 * math.Pow(1e4, float64(i)/float64(len(vals)-1))))
	}
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i%len(vals)])
	}
}
