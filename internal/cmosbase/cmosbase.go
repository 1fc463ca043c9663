// Package cmosbase implements the paper's optimized digital CMOS baseline
// (§4.1, Fig 9): a 45 nm, 1 GHz accelerator with 16 neuron units fed by 16
// input FIFOs and a single 4-bit weight FIFO, following the FALCON dataflow
// ([15]) and aggressively optimized for SNNs with event-driven skipping of
// zero spikes and buffered temporal/spatial weight reuse.
//
// The model captures the two properties that shape Fig 12(b,d):
//
//   - MLP layers have no weight reuse: every active synapse streams its
//     weight from the (large) weight SRAM, so energy is memory-dominated
//     and throughput is bound by the single weight FIFO (one weight per
//     cycle at the 4-bit reference width).
//   - Conv layers reuse kernels across output positions: the small kernel
//     working set is fetched once per timestep and served from buffers, so
//     energy is core-dominated and the 16 NUs parallelize the accumulate
//     operations.
package cmosbase

import (
	"fmt"
	"sync"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Options configure the baseline simulation.
type Options struct {
	Params energy.Params
	// Bits is the weight precision (4 in the main evaluation; Fig 14b
	// sweeps 1..8).
	Bits int
	// EventDriven applies the zero-spike skipping optimizations of §4.1
	// (the paper's baseline always has them; the toggle exists for
	// ablation).
	EventDriven bool
	// Steps is the number of SNN timesteps per classification.
	Steps int
	// BlockSize overrides the blocked runner's temporal block length
	// (<= 0 selects snn.DefaultBlockSize; see snn.State.RunBlockedK). Any
	// value produces bit-identical rasters and counters.
	BlockSize int
}

// DefaultOptions returns the paper's baseline configuration.
func DefaultOptions() Options {
	return Options{Params: energy.Default45nm(), Bits: 4, EventDriven: true, Steps: 64}
}

// Counters are the raw event counts of one classification.
type Counters struct {
	Cycles        int
	SynOps        int // synaptic accumulations executed
	WeightWords   int // weight-memory words fetched
	ActWords      int // activation/spike words read+written
	NeuronUpdates int // membrane-potential read-modify-writes
}

// Report is the outcome of one classification on the baseline.
type Report struct {
	Energy    perf.CMOSEnergy
	Latency   float64
	Counts    Counters
	Predicted int
	// LayerCycles accumulates execution cycles per layer over the run —
	// the per-stage profile that shows dense layers dominating MLP time
	// (weight-FIFO bound) and conv layers dominating CNN time.
	LayerCycles []int
}

// Baseline is a network prepared for baseline simulation.
type Baseline struct {
	Net *snn.Network
	Opt Options

	weightMem energy.SRAM
	actMem    energy.SRAM
	// uniqueWeights per layer (kernel parameters for conv, full matrix for
	// dense, none for pool).
	uniqueWeights []int
	// states recycles worker simulation states across classification calls.
	states sync.Pool
}

// New prepares the baseline for a network: the weight memory is sized for
// every unique weight at the configured precision, the activation memory
// for membrane potentials (16-bit) and spike bits.
func New(net *snn.Network, opt Options) (*Baseline, error) {
	if opt.Bits < 1 || opt.Bits > 64 {
		return nil, fmt.Errorf("cmosbase: bits %d out of [1,64]", opt.Bits)
	}
	if opt.Steps < 1 {
		return nil, fmt.Errorf("cmosbase: steps %d", opt.Steps)
	}
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("cmosbase: network %q has no layers", net.Name)
	}
	b := &Baseline{Net: net, Opt: opt}
	// The weight memory is provisioned for the maximum supported precision
	// (8 bits); lower precisions pack more weights per word but the macro
	// (and its leakage) stays the same — which is why the baseline's Fig 14b
	// energy rises only through access/core/latency terms at low precision.
	const maxWeightBits = 8
	totalWeights := 0
	for _, l := range net.Layers {
		var u int
		switch l.Kind {
		case snn.DenseLayer:
			u = l.InSize() * l.OutSize()
		case snn.ConvLayer:
			u = l.W.Rows * l.W.Cols
		case snn.PoolLayer:
			u = 0 // fixed 1/K² weight needs no storage
		}
		b.uniqueWeights = append(b.uniqueWeights, u)
		totalWeights += u
	}
	wBytes := totalWeights * maxWeightBits / 8
	if wBytes < 1024 {
		wBytes = 1024
	}
	b.weightMem = energy.NewSRAM(wBytes)
	aBytes := net.HiddenNeurons() * 3 // 16-bit Vmem + spike bits + slack
	if aBytes < 1024 {
		aBytes = 1024
	}
	b.actMem = energy.NewSRAM(aBytes)
	return b, nil
}

// WeightMemoryBytes exposes the weight SRAM capacity (for reports).
func (b *Baseline) WeightMemoryBytes() int { return b.weightMem.Bytes }

// observer charges events per timestep.
type observer struct {
	b           *Baseline
	cnt         Counters
	layerCycles []int
}

// ObserveStep implements snn.Observer.
func (o *observer) ObserveStep(_ int, input *bitvec.Bits, layers []*bitvec.Bits) {
	b := o.b
	p := b.Opt.Params
	bits := b.Opt.Bits
	if o.layerCycles == nil {
		o.layerCycles = make([]int, len(b.Net.Layers))
	}
	cur := input
	for li, l := range b.Net.Layers {
		prevCycles := o.cnt.Cycles
		// Synaptic work: event-driven skips silent inputs entirely; the
		// spiking inputs' fan-outs come from the layer's closed-form table.
		ops := 0
		if b.Opt.EventDriven {
			ops = l.ActiveSynOps(cur)
		} else {
			ops = l.Synapses()
		}
		o.cnt.SynOps += ops

		// Weight traffic.
		var weightWords int
		switch l.Kind {
		case snn.DenseLayer:
			// No reuse: each op streams its weight from memory.
			weightWords = b.weightMem.WordsFor(ops, bits)
		case snn.ConvLayer:
			// Kernel working set fetched once per timestep, then served
			// from the weight buffer.
			if ops > 0 {
				weightWords = b.weightMem.WordsFor(b.uniqueWeights[li], bits)
			}
		case snn.PoolLayer:
			weightWords = 0
		}
		o.cnt.WeightWords += weightWords

		// Activation traffic: spike vectors in and out, zero words skipped
		// by the event-driven read path.
		zeroIn, totalIn := cur.ZeroPackets(64)
		out := layers[li]
		zeroOut, totalOut := out.ZeroPackets(64)
		actWords := 0
		if b.Opt.EventDriven {
			actWords = (totalIn - zeroIn) + (totalOut - zeroOut)
		} else {
			actWords = totalIn + totalOut
		}
		o.cnt.ActWords += actWords

		// Membrane updates: every neuron that received at least one op this
		// step performs a read-modify-write; bound by the layer size.
		updates := 0
		if ops > 0 {
			updates = l.OutSize()
		}
		o.cnt.NeuronUpdates += updates

		// Cycles: dense layers are bound by the single weight FIFO (one
		// 4-bit weight per cycle; wider weights take proportionally
		// longer); conv/pool layers reuse weights so the 16 NUs bound
		// throughput (with a floor at the fetch bandwidth).
		switch l.Kind {
		case snn.DenseLayer:
			// One weight per FIFO pop minimum; wider weights take
			// proportionally more pops.
			o.cnt.Cycles += ops * ((bits + p.BitRefWidth - 1) / p.BitRefWidth)
		default:
			nuCycles := (ops + 15) / 16
			if weightWords > nuCycles {
				nuCycles = weightWords
			}
			o.cnt.Cycles += nuCycles
		}
		o.layerCycles[li] += o.cnt.Cycles - prevCycles
		cur = out
	}
}

var _ sim.Backend = (*Baseline)(nil)

// Name implements sim.Backend.
func (b *Baseline) Name() string { return "cmos" }

// Network implements sim.Backend.
func (b *Baseline) Network() *snn.Network { return b.Net }

// Healthy implements sim.Backend; the digital baseline has no fault
// campaigns, so it is always servable.
func (b *Baseline) Healthy() error { return nil }

// Classify implements sim.Backend: one classification with the baseline's
// configured runner and step budget.
func (b *Baseline) Classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, sim.Report) {
	res, rep, steps := b.classify(intensity, enc)
	return res, sim.Report{Predicted: rep.Predicted, Steps: steps, Detail: rep}
}

// ClassifyDetailed is Classify returning the baseline's own Report (event
// counters, per-layer cycles) instead of the backend-neutral sim.Report.
func (b *Baseline) ClassifyDetailed(intensity tensor.Vec, enc snn.Encoder) (perf.Result, Report) {
	res, rep, _ := b.classify(intensity, enc)
	return res, rep
}

func (b *Baseline) getState() *snn.State {
	if st, ok := b.states.Get().(*snn.State); ok {
		return st
	}
	return snn.NewState(b.Net)
}

// classify runs one classification on a state taken from the pool.
func (b *Baseline) classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, Report, int) {
	st := b.getState()
	defer b.states.Put(st)
	return b.classifyOne(st, intensity, enc, sim.Options{})
}

// classifyOne runs one classification on a worker's state (reused across
// calls) under the given per-call options.
func (b *Baseline) classifyOne(st *snn.State, intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, Report, int) {
	obs := &observer{b: b}
	steps, predicted := sim.Run(st, intensity, enc, b.Opt.Steps, b.Opt.BlockSize, opt, obs)
	res, rep := b.finish(obs.cnt, predicted)
	rep.LayerCycles = obs.layerCycles
	res.Steps = steps
	return res, rep, steps
}

func (b *Baseline) finish(cnt Counters, predicted int) (perf.Result, Report) {
	p := b.Opt.Params
	lat := float64(cnt.Cycles) * p.CMOSCycle()
	var e perf.CMOSEnergy
	e.Core = float64(cnt.SynOps)*(p.CoreOpAt(b.Opt.Bits)+2*p.FIFOAccess) +
		float64(cnt.NeuronUpdates)*p.NeuronUnitUpdate
	e.MemoryAccess = float64(cnt.WeightWords)*b.weightMem.AccessEnergy() +
		float64(cnt.ActWords)*b.actMem.AccessEnergy()
	e.MemoryLeakage = (b.weightMem.LeakagePower() + b.actMem.LeakagePower()) * lat
	rep := Report{Energy: e, Latency: lat, Counts: cnt, Predicted: predicted}
	res := perf.Result{
		Arch:    "cmos",
		Network: b.Net.Name,
		Energy:  e.Total(),
		Latency: lat,
		Steps:   b.Opt.Steps,
	}
	return res, rep
}

// ClassifyEach implements sim.Backend: per-image classification across the
// shared worker pool via the one fan-out in sim.Each. Each worker owns one
// simulation state, each sample gets its own encoder, and image i's outcome
// depends only on (input[i], enc(i)), so results are bit-identical for any
// worker count.
func (b *Baseline) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	var held []*snn.State
	defer func() {
		for _, st := range held {
			b.states.Put(st)
		}
	}()
	return sim.Each(inputs, enc, opt, func() sim.Session {
		st := b.getState()
		held = append(held, st)
		return func(in tensor.Vec, e snn.Encoder) (perf.Result, sim.Report) {
			res, rep, steps := b.classifyOne(st, in, e, opt)
			return res, sim.Report{Predicted: rep.Predicted, Steps: steps, Detail: rep}
		}
	})
}

// reduceReports aggregates per-image reports into the baseline's batch
// shape: counters and per-layer cycles averaged per classification (the
// paper reports per-classification averages), energy recomputed from the
// averaged counters, and Predicted == -1 (an aggregate has no single
// prediction). The reduction differs from the chip's (which averages
// energies directly) — which is exactly why aggregation lives with the
// backend rather than in sim.
func (b *Baseline) reduceReports(reps []Report) (perf.Result, Report) {
	var cnt Counters
	layer := make([]int, len(b.Net.Layers))
	for _, r := range reps {
		cnt.Cycles += r.Counts.Cycles
		cnt.SynOps += r.Counts.SynOps
		cnt.WeightWords += r.Counts.WeightWords
		cnt.ActWords += r.Counts.ActWords
		cnt.NeuronUpdates += r.Counts.NeuronUpdates
		for li, c := range r.LayerCycles {
			layer[li] += c
		}
	}
	n := len(reps)
	cnt.Cycles /= n
	cnt.SynOps /= n
	cnt.WeightWords /= n
	cnt.ActWords /= n
	cnt.NeuronUpdates /= n
	for li := range layer {
		layer[li] /= n
	}
	res, rep := b.finish(cnt, -1)
	rep.LayerCycles = layer
	return res, rep
}

// ClassifyBatch implements sim.Backend: it classifies every input and
// reduces the per-image reports with the baseline's aggregation. The
// outcome is bit-identical for any worker count.
func (b *Baseline) ClassifyBatch(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) (perf.Result, sim.Report, error) {
	_, sreps, err := b.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return perf.Result{}, sim.Report{}, err
	}
	reps := make([]Report, len(sreps))
	for i, r := range sreps {
		reps[i] = r.Detail.(Report)
	}
	res, rep := b.reduceReports(reps)
	return res, sim.Report{Predicted: -1, Steps: b.Opt.Steps, Detail: rep}, nil
}
