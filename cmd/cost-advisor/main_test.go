package main

import (
	"testing"

	"tierbase/internal/core"
	"tierbase/internal/workload"
)

// TestMeasureConfigs: every candidate is priced, and the compressed ones
// fit more data in a container than raw does.
func TestMeasureConfigs(t *testing.T) {
	configs, err := measureConfigs(workload.NewKV1(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"raw", "pmem", "zstd-d", "pbc"} {
		m, ok := configs[name]
		if !ok || m.MaxPerfQPS <= 0 || m.MaxSpaceGB <= 0 {
			t.Fatalf("%s: %+v (present %v)", name, m, ok)
		}
	}
	raw := configs["raw"].MaxSpaceGB
	for _, name := range []string{"zstd-d", "pbc"} {
		if configs[name].MaxSpaceGB <= raw {
			t.Fatalf("%s holds %.2f GB a container, raw %.2f", name, configs[name].MaxSpaceGB, raw)
		}
	}
}

// TestLiveProbe: a cache a tenth the size of the data misses some reads
// and serves most of a zipfian stream.
func TestLiveProbe(t *testing.T) {
	p := liveProbe{keys: 500, ops: 4000, cacheRatio: 0.1, dist: "zipfian"}
	mr, err := p.run(workload.NewKV1(), core.TieredInputs{PCCache: 1, SCCache: 1, PCMiss: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mr <= 0 || mr >= 0.9 {
		t.Fatalf("read-phase miss ratio %.3f at cache ratio 0.1", mr)
	}
}
