package workload

import (
	"fmt"
	"math/rand"
)

// OpKind enumerates key-value operations in a generated stream.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// Op is a single generated operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte // nil for reads
}

// Mix declares the run phase's operation proportions: ReadProportion of
// the operations are reads, and the rest are updates.
type Mix struct {
	ReadProportion float64
}

// Standard YCSB mixes used in the paper's evaluation (§6.1).
var (
	// MixA is YCSB Workload A: update-heavy, 50% reads / 50% updates.
	MixA = Mix{ReadProportion: 0.5}
	// MixB is YCSB Workload B: read-heavy, 95% reads / 5% updates.
	MixB = Mix{ReadProportion: 0.95}
)

// Spec fully describes a workload: population, key distribution, mix and
// dataset. It corresponds to one (w) in the cost model.
type Spec struct {
	Name        string
	RecordCount int64
	Mix         Mix
	Dataset     Dataset
	// Distribution is one of Distributions.
	Distribution string
	ZipfTheta    float64
	KeyPrefix    string
	Seed         int64
	// ShiftEvery rotates the hotspot-shift hot window every this many
	// operations (default RecordCount, i.e. one rotation per population
	// pass). Only "hotspot-shift" reads it.
	ShiftEvery int64
}

// Distributions names the key distributions NewGenerator knows; it reads
// any other name, the empty one included, as zipfian.
var Distributions = []string{"zipfian", "uniform", "latest", "hotspot", "hotspot-shift"}

// DefaultSpec returns Workload A over the cities dataset with n records.
func DefaultSpec(n int64) Spec {
	return Spec{
		Name:         "workloada",
		RecordCount:  n,
		Mix:          MixA,
		Dataset:      NewCities(),
		Distribution: "zipfian",
		ZipfTheta:    ZipfianTheta,
		KeyPrefix:    "user",
		Seed:         1,
	}
}

// WorkloadA returns YCSB workload A (50/50) with n records over ds.
func WorkloadA(n int64, ds Dataset) Spec {
	s := DefaultSpec(n)
	s.Dataset = ds
	return s
}

// WorkloadB returns YCSB workload B (95/5) with n records over ds.
func WorkloadB(n int64, ds Dataset) Spec {
	s := DefaultSpec(n)
	s.Name = "workloadb"
	s.Mix = MixB
	s.Dataset = ds
	return s
}

// Key renders the key for index i.
func (s Spec) Key(i int64) string {
	return fmt.Sprintf("%s%012d", s.KeyPrefix, i)
}

// Generator produces operation streams for a Spec. Not safe for concurrent
// use; create one per worker with distinct seeds.
type Generator struct {
	spec    Spec
	rng     *rand.Rand
	chooser KeyChooser
}

// NewGenerator builds a Generator for the spec, offset differentiates
// concurrent generator streams.
func NewGenerator(spec Spec, offset int64) *Generator {
	rng := rand.New(rand.NewSource(spec.Seed*7919 + offset*104729 + 1))
	var chooser KeyChooser
	theta := spec.ZipfTheta
	if theta <= 0 || theta >= 1 {
		theta = ZipfianTheta
	}
	switch spec.Distribution {
	case "uniform":
		chooser = NewUniform(spec.RecordCount)
	case "latest":
		chooser = NewLatest(spec.RecordCount, theta)
	case "hotspot":
		chooser = NewHotspot(spec.RecordCount, 0.01, 0.9)
	case "hotspot-shift":
		shift := spec.ShiftEvery
		if shift <= 0 {
			shift = spec.RecordCount
		}
		chooser = NewShiftingHotspot(spec.RecordCount, 0.1, 0.9, shift)
	default:
		chooser = NewScrambledZipfian(spec.RecordCount, theta)
	}
	return &Generator{spec: spec, rng: rng, chooser: chooser}
}

// LoadOps returns the load-phase insert stream for the whole population.
func (s Spec) LoadOps() []Op {
	ops := make([]Op, s.RecordCount)
	for i := int64(0); i < s.RecordCount; i++ {
		ops[i] = Op{Kind: OpWrite, Key: s.Key(i), Value: s.Dataset.Record(i)}
	}
	return ops
}

// Next generates the next run-phase operation.
func (g *Generator) Next() Op {
	if g.rng.Float64() < g.spec.Mix.ReadProportion {
		return Op{Kind: OpRead, Key: g.spec.Key(g.chooser.Next(g.rng))}
	}
	i := g.chooser.Next(g.rng)
	return Op{Kind: OpWrite, Key: g.spec.Key(i), Value: g.spec.Dataset.Record(i + g.rng.Int63n(1024))}
}

// Ops generates n run-phase operations.
func (g *Generator) Ops(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
