package compress

import (
	"testing"

	"tierbase/internal/workload"
)

// benchSink keeps the measured call's result alive.
var benchSink []byte

// pbcBenchSet is a PBC trained the way the server trains it, and 1024
// records the training sample does not contain.
func pbcBenchSet(b *testing.B, ds workload.Dataset) (*PBC, [][]byte, int64) {
	b.Helper()
	p := NewPBC()
	if err := p.Train(workload.Sample(ds, 500)); err != nil {
		b.Fatal(err)
	}
	recs := make([][]byte, 1024)
	var total int64
	for i := range recs {
		recs[i] = ds.Record(int64(50_000 + i))
		total += int64(len(recs[i]))
	}
	return p, recs, total / int64(len(recs))
}

func pbcBenchDatasets() []workload.Dataset {
	return []workload.Dataset{workload.NewKV1(), workload.NewKV2(), workload.NewCities()}
}

func BenchmarkPBCCompress(b *testing.B) {
	for _, ds := range pbcBenchDatasets() {
		b.Run(ds.Name(), func(b *testing.B) {
			p, recs, mean := pbcBenchSet(b, ds)
			b.ReportAllocs()
			b.SetBytes(mean)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = p.Compress(recs[i%len(recs)])
			}
		})
	}
}

func BenchmarkPBCDecompress(b *testing.B) {
	for _, ds := range pbcBenchDatasets() {
		b.Run(ds.Name(), func(b *testing.B) {
			p, recs, mean := pbcBenchSet(b, ds)
			comp := make([][]byte, len(recs))
			for i, r := range recs {
				comp[i] = p.Compress(r)
			}
			b.ReportAllocs()
			b.SetBytes(mean)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := p.Decompress(comp[i%len(comp)])
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}
