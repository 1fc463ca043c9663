package shard

import (
	"fmt"

	"resparc/internal/bitvec"
	"resparc/internal/core"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// session is one worker's reusable state for a whole image: a stage worker
// per shard and one boundary raster per hop. Sessions are pooled across
// calls, so a stream of small batches does not rebuild them. Every capture
// overwrites all timesteps of its raster, so a recycled session needs no
// clearing.
type session struct {
	stages  []stageWorker
	rasters [][]*bitvec.Bits // rasters[h]: shard h's boundary spikes into shard h+1
}

// stageWorker is one shard's simulation state and accountant.
type stageWorker struct {
	st   *snn.State
	acct *core.Accountant
}

func (m *Multi) getSession() *session {
	if s, ok := m.sessions.Get().(*session); ok {
		return s
	}
	s := &session{
		stages:  make([]stageWorker, len(m.ranges)),
		rasters: make([][]*bitvec.Bits, len(m.ranges)-1),
	}
	for i, r := range m.ranges {
		acct, err := m.chip.NewAccountant(r.Lo, r.Hi)
		if err != nil {
			panic("shard: " + err.Error()) // ranges are validated at New
		}
		s.stages[i] = stageWorker{st: snn.NewState(m.subnets[i]), acct: acct}
	}
	for h := range s.rasters {
		raster := make([]*bitvec.Bits, m.chip.Opt.Steps)
		for t := range raster {
			raster[t] = bitvec.New(m.subnets[h+1].Input.Size())
		}
		s.rasters[h] = raster
	}
	return s
}

// classifyOne runs one image through every shard stage in order on a
// worker's session: each stage replays the previous stage's boundary raster,
// each hop is charged to the link model, and finish merges the parts under
// the per-call options.
func (m *Multi) classifyOne(s *session, intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, sim.Report) {
	S := len(m.ranges)
	parts := make([]core.Report, S)
	hops := make([]LinkStats, S-1)
	hopSteps := make([][]int64, S-1)
	predicted := 0
	var in []*bitvec.Bits
	for i, w := range s.stages {
		var out []*bitvec.Bits
		if i < S-1 {
			out = s.rasters[i]
		}
		parts[i], predicted = m.runStage(i, w.st, w.acct, intensity, enc, in, out, opt)
		if out != nil {
			hops[i], hopSteps[i] = m.linkCost(out, opt.EventEngine)
		}
		in = out
	}
	return m.finish(parts, hops, hopSteps, predicted, opt.EventEngine)
}

// Classify implements sim.Backend: one image through all shards in
// sequence.
func (m *Multi) Classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, sim.Report) {
	s := m.getSession()
	defer m.sessions.Put(s)
	return m.classifyOne(s, intensity, enc, sim.Options{})
}

// ClassifyEach implements sim.Backend through the shared sim.Each fan-out,
// like the single-chip backends: images run in parallel across
// Options.Workers, and each image passes through every shard stage in order
// on one worker's session. Host execution is therefore image-parallel; the
// chips' layer pipeline is modeled, not executed — Report.Interval bounds
// its steady-state throughput and, under Options.EventEngine, the merged
// Cycles and Latency come from the global pipeline simulation
// (cost.Pipeline) instead of the serial sum (see finish).
//
// Image i's outcome depends only on (inputs[i], enc(i)), so results are
// bit-identical to sequential Classify calls for any worker count.
// Options.EarlyExit is rejected: time-to-first-spike decoding needs the
// output layer's verdict before upstream shards stop, which a chip pipeline
// cannot know retroactively. Tracing is not supported (the trace writer is
// not concurrency-safe).
func (m *Multi) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	if opt.EarlyExit {
		return nil, nil, fmt.Errorf("shard: early exit is not supported on the multi-chip pipeline")
	}
	if m.chip.Opt.Trace != nil {
		return nil, nil, fmt.Errorf("shard: tracing is not supported with batched classification")
	}
	if err := m.Healthy(); err != nil {
		return nil, nil, err
	}
	var held []*session
	defer func() {
		for _, s := range held {
			m.sessions.Put(s)
		}
	}()
	return sim.Each(inputs, enc, opt, func() sim.Session {
		s := m.getSession()
		held = append(held, s)
		return func(in tensor.Vec, e snn.Encoder) (perf.Result, sim.Report) {
			return m.classifyOne(s, in, e, opt)
		}
	})
}

// ClassifyBatch implements sim.Backend: it classifies every input through
// ClassifyEach and reduces to the batch aggregate — chip energies and
// latency averaged per classification, event counters summed (the same
// shape as core.Chip.ClassifyBatch), link traffic summed over the batch and
// the pipeline interval averaged.
func (m *Multi) ClassifyBatch(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) (perf.Result, sim.Report, error) {
	ress, sreps, err := m.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return perf.Result{}, sim.Report{}, err
	}
	n := float64(len(sreps))
	var total core.Report
	var link LinkStats
	var hops []LinkStats
	var interval, energy, latency float64
	for i, sr := range sreps {
		d := sr.Detail.(Report)
		if hops == nil {
			hops = make([]LinkStats, len(d.Hops))
		}
		for h, hs := range d.Hops {
			hops[h] = addLink(hops[h], hs)
		}
		total.Latency += d.Chip.Latency
		total.Counts = addCounters(total.Counts, d.Chip.Counts)
		total.BusCycles += d.Chip.BusCycles
		total.Breakdown = addBreakdown(total.Breakdown, d.Chip.Breakdown)
		total.BusWait += d.Chip.BusWait
		if total.LayerCycles == nil {
			total.LayerCycles = make([]int, len(d.Chip.LayerCycles))
			total.LayerEnergies = make([]perf.RESPARCEnergy, len(d.Chip.LayerEnergies))
			total.LayerSpikes = make([]int, len(d.Chip.LayerSpikes))
		}
		for li, cyc := range d.Chip.LayerCycles {
			total.LayerCycles[li] += cyc
		}
		for li, sp := range d.Chip.LayerSpikes {
			total.LayerSpikes[li] += sp
		}
		for li, le := range d.Chip.LayerEnergies {
			total.LayerEnergies[li].Neuron += le.Neuron
			total.LayerEnergies[li].Crossbar += le.Crossbar
			total.LayerEnergies[li].Peripherals += le.Peripherals
		}
		link = addLink(link, d.Link)
		interval += d.Interval
		energy += ress[i].Energy
		latency += ress[i].Latency
	}
	for li := range total.LayerEnergies {
		total.LayerEnergies[li].Neuron /= n
		total.LayerEnergies[li].Crossbar /= n
		total.LayerEnergies[li].Peripherals /= n
	}
	avgChip := core.Report{
		Energy:        perf.SumRESPARC(total.LayerEnergies),
		Latency:       total.Latency / n,
		Counts:        total.Counts,
		BusCycles:     total.BusCycles,
		Breakdown:     total.Breakdown,
		BusWait:       total.BusWait,
		LayerCycles:   total.LayerCycles,
		LayerEnergies: total.LayerEnergies,
		LayerSpikes:   total.LayerSpikes,
		Predicted:     -1,
	}
	rep := Report{
		Ranges: m.Ranges(), Chip: avgChip, Link: link, Hops: hops,
		Interval: interval / n, Predicted: -1,
	}
	res := perf.Result{
		Arch:    m.name,
		Network: m.chip.Net.Name,
		Energy:  energy / n,
		Latency: latency / n,
		Steps:   m.chip.Opt.Steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = m.sparsity(total.LayerSpikes, len(sreps), m.chip.Opt.Steps)
	return res, sim.Report{Predicted: -1, Steps: m.chip.Opt.Steps, Detail: rep}, nil
}
