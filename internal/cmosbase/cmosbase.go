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
	// sessions recycles worker sessions across classification calls.
	sessions sync.Pool
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

// session is one worker's reusable simulation state: a group of
// Net.GroupSize() functional States that run a chunk of images in lockstep
// (sim.Run).
type session struct {
	ms   []snn.Member
	runs []snn.RunResult
	reps []Report
}

func (b *Baseline) getSession() *session {
	if s, ok := b.sessions.Get().(*session); ok {
		return s
	}
	g := b.Net.GroupSize()
	s := &session{ms: make([]snn.Member, g), runs: make([]snn.RunResult, g), reps: make([]Report, g)}
	for i := range s.ms {
		s.ms[i].State = snn.NewState(b.Net)
	}
	return s
}

// classify runs one classification — a group of one — on a session taken
// from the pool.
func (b *Baseline) classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, Report, int) {
	s := b.getSession()
	defer b.sessions.Put(s)
	var res [1]perf.Result
	b.classifyGroup(s, []tensor.Vec{intensity}, []snn.Encoder{enc}, sim.Options{}, res[:])
	return res[0], s.reps[0], s.runs[0].Steps
}

// classifyGroup classifies a chunk of at most the session's group size on
// a worker's session under the given per-call options: image i's result
// goes to ress[i] and s.reps[i], its executed steps to s.runs[i].Steps.
// Each image gets its own observer, whose per-layer cycles its report
// keeps.
func (b *Baseline) classifyGroup(s *session, inputs []tensor.Vec, encs []snn.Encoder, opt sim.Options, ress []perf.Result) {
	ms := s.ms[:len(inputs)]
	for i := range ms {
		ms[i].Input, ms[i].Enc, ms[i].Obs = inputs[i], encs[i], &observer{b: b}
	}
	sim.Run(ms, b.Opt.Steps, b.Opt.BlockSize, opt, s.runs)
	for i := range ms {
		obs := ms[i].Obs.(*observer)
		ress[i], s.reps[i] = b.finish(obs.cnt, s.runs[i].Prediction)
		s.reps[i].LayerCycles = obs.layerCycles
		ress[i].Steps = s.runs[i].Steps
		// A pooled session must not keep the caller's inputs alive.
		ms[i] = snn.Member{State: ms[i].State}
	}
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
// session and runs its images in groups of Net.GroupSize(), each sample
// gets its own encoder, and image i's outcome depends only on (input[i],
// enc(i)), so results are bit-identical for any worker count.
func (b *Baseline) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	var held []*session
	defer func() {
		for _, s := range held {
			b.sessions.Put(s)
		}
	}()
	return sim.Each(inputs, enc, opt, b.Net.GroupSize(), func() sim.Session {
		s := b.getSession()
		held = append(held, s)
		return func(in []tensor.Vec, encs []snn.Encoder, ress []perf.Result, reps []sim.Report) {
			b.classifyGroup(s, in, encs, opt, ress)
			for i, rep := range s.reps[:len(in)] {
				reps[i] = sim.Report{Predicted: rep.Predicted, Steps: s.runs[i].Steps, Detail: rep}
			}
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
