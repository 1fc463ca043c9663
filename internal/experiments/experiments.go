// Package experiments regenerates every table and figure of the paper's
// evaluation (§4-§5): the implementation-parameter tables (Figs 8-9), the
// benchmark table (Fig 10), the energy/speedup comparison (Fig 11), the
// energy breakdowns across MCA sizes (Fig 12), the event-drivenness study
// (Fig 13) and the bit-discretization study (Fig 14).
//
// Every driver takes a Config so tests can run reduced workloads and the
// resparc-bench CLI can run the full configuration.
package experiments

import (
	"fmt"

	"resparc/internal/bench"
	"resparc/internal/cmosbase"
	"resparc/internal/core"
	"resparc/internal/dataset"
	"resparc/internal/device"
	"resparc/internal/energy"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Config controls workload size and simulation fidelity.
type Config struct {
	// Seed drives every PRNG in the experiment.
	Seed int64
	// Steps is the number of SNN timesteps per classification.
	Steps int
	// Samples is the number of dataset images averaged per measurement.
	Samples int
	// MaxProb is the Poisson encoder's peak spike probability.
	MaxProb float64
	// MCASize is the default crossbar dimension (Fig 11 uses 64).
	MCASize int
	// Workers is the evaluation worker-pool size; <= 0 selects one worker
	// per CPU. Results are bit-identical for any value (see
	// internal/parallel).
	Workers int
	// Params is the energy/timing calibration.
	Params energy.Params
	// BlockSize overrides the blocked runner's temporal block length in
	// every simulator (<= 0 selects snn.DefaultBlockSize). Results are
	// bit-identical for any value (see snn.State.RunBlockedK).
	BlockSize int
	// Tech is the memristive technology (must allow the largest swept MCA).
	Tech device.Technology
}

// DefaultConfig is the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Seed:    1,
		Steps:   48,
		Samples: 3,
		MaxProb: 0.8,
		MCASize: 64,
		Params:  energy.Default45nm(),
		Tech:    device.AgSi,
	}
}

// quick reduces fidelity for the unit-test path without changing shape
// outcomes; exported via QuickConfig for tests and smoke runs.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Steps = 12
	c.Samples = 1
	return c
}

// inputsFor draws Samples images of the benchmark's dataset adapted to the
// network input shape.
func inputsFor(b bench.Benchmark, net *snn.Network, cfg Config) ([]tensor.Vec, error) {
	set := dataset.Generate(b.Dataset, cfg.Samples, cfg.Seed+100)
	out := make([]tensor.Vec, len(set.Samples))
	for i, s := range set.Samples {
		in, err := bench.PrepareInput(s.Input, set.Shape, net.Input)
		if err != nil {
			return nil, err
		}
		out[i] = bench.NormalizeIntensity(in)
	}
	return out, nil
}

// encoders returns the per-sample encoder factory shared by every driver:
// sample i's spike stream is the base Poisson encoder forked by image
// index, so batch results are reproducible and independent of the worker
// count.
func (c Config) encoders() func(sample int) snn.Encoder {
	base := snn.NewPoissonEncoder(c.MaxProb, c.Seed+7)
	return func(i int) snn.Encoder { return base.ForkSeed(i) }
}

// simOptions translates the experiment configuration to the shared batch
// options of the sim.Backend entry points. BlockSize is baked into
// each backend at construction; the worker count is per-call.
func (c Config) simOptions() sim.Options {
	return sim.Options{Workers: c.Workers}
}

// Pair is one benchmark evaluated on both architectures.
type Pair struct {
	Bench    bench.Benchmark
	RESPARC  perf.Result
	RRep     core.Report
	CMOS     perf.Result
	CRep     cmosbase.Report
	Mapping  *mapping.Mapping
	Compared perf.Comparison
}

// mapConfig builds the mapping configuration for a crossbar size.
func (c Config) mapConfig(size int) mapping.Config {
	mc := mapping.DefaultConfig()
	mc.MCASize = size
	mc.Tech = c.Tech
	return mc
}

// RunPair simulates one benchmark on RESPARC (at the given MCA size) and on
// the CMOS baseline, averaging over the configured samples.
func RunPair(b bench.Benchmark, size int, cfg Config) (Pair, error) {
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return Pair{}, err
	}
	return runPairOn(net, b, size, cfg)
}

func runPairOn(net *snn.Network, b bench.Benchmark, size int, cfg Config) (Pair, error) {
	m, err := mapping.Map(net, cfg.mapConfig(size))
	if err != nil {
		return Pair{}, err
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	copt.BlockSize = cfg.BlockSize
	chip, err := core.New(net, m, copt)
	if err != nil {
		return Pair{}, err
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return Pair{}, err
	}
	rRes, rSRep, err := chip.ClassifyBatch(inputs, cfg.encoders(), cfg.simOptions())
	if err != nil {
		return Pair{}, err
	}
	rRep := rSRep.Detail.(core.Report)

	bopt := cmosbase.DefaultOptions()
	bopt.Params = cfg.Params
	bopt.Steps = cfg.Steps
	bopt.BlockSize = cfg.BlockSize
	base, err := cmosbase.New(net, bopt)
	if err != nil {
		return Pair{}, err
	}
	cRes, cSRep, err := base.ClassifyBatch(inputs, cfg.encoders(), cfg.simOptions())
	if err != nil {
		return Pair{}, err
	}
	cRep := cSRep.Detail.(cmosbase.Report)
	cmp, err := perf.Compare(rRes, cRes)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Bench: b, RESPARC: rRes, RRep: rRep, CMOS: cRes, CRep: cRep, Mapping: m, Compared: cmp}, nil
}

// RunRESPARC simulates only the RESPARC side (used by the sweeps that do
// not need the baseline re-run per configuration).
func RunRESPARC(b bench.Benchmark, size int, cfg Config, eventDriven bool, packetWidth int) (perf.Result, core.Report, *mapping.Mapping, error) {
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return perf.Result{}, core.Report{}, nil, err
	}
	m, err := mapping.Map(net, cfg.mapConfig(size))
	if err != nil {
		return perf.Result{}, core.Report{}, nil, err
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	copt.BlockSize = cfg.BlockSize
	copt.EventDriven = eventDriven
	if packetWidth > 0 {
		copt.PacketWidth = packetWidth
	}
	chip, err := core.New(net, m, copt)
	if err != nil {
		return perf.Result{}, core.Report{}, nil, err
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return perf.Result{}, core.Report{}, nil, err
	}
	res, srep, err := chip.ClassifyBatch(inputs, cfg.encoders(), cfg.simOptions())
	if err != nil {
		return perf.Result{}, core.Report{}, nil, err
	}
	return res, srep.Detail.(core.Report), m, nil
}

func fmtErr(fig string, err error) error { return fmt.Errorf("experiments: %s: %w", fig, err) }
