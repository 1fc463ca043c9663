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

// session is one worker's reusable state: the whole network's functional
// State, its whole-chip accountant and the current image's link tallies.
// It is the run's observer: every timestep goes to the accountant, and the
// boundary raster of every non-final range — the output of its last layer —
// is priced on that range's hop, in timestep order. Sessions are pooled
// across calls, so a stream of small batches does not rebuild them.
type session struct {
	m     *Multi
	st    *snn.State
	acct  *core.Accountant
	hops  []LinkStats // hops[h]: the image's traffic from shard h to shard h+1
	steps [][]int64   // steps[h][t]: hop h's transfer cycles at timestep t
}

// ObserveStep implements snn.Observer.
func (s *session) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	s.acct.ObserveStep(t, input, layers)
	for h := range s.hops {
		c := s.m.cfg.Link.Raster(layers[s.m.ranges[h].Hi-1])
		s.hops[h] = addLink(s.hops[h], LinkStats{
			FlitsSent: c.Sent, FlitsSuppressed: c.Suppressed, Cycles: c.Cycles, EnergyJ: c.EnergyJ,
		})
		s.steps[h] = append(s.steps[h], int64(c.Cycles))
	}
}

func (m *Multi) getSession() *session {
	if s, ok := m.sessions.Get().(*session); ok {
		return s
	}
	acct, err := m.chip.NewAccountant(0, len(m.chip.Net.Layers))
	if err != nil {
		panic("shard: " + err.Error()) // a network has at least one layer
	}
	return &session{
		m: m, st: snn.NewState(m.chip.Net), acct: acct,
		hops:  make([]LinkStats, len(m.ranges)-1),
		steps: make([][]int64, len(m.ranges)-1),
	}
}

// classifyOne runs one image once through the whole network on a worker's
// session and reads the multi-chip result off that run under the per-call
// options (see finish).
func (m *Multi) classifyOne(s *session, intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, sim.Report) {
	s.acct.Reset()
	clear(s.hops)
	for h := range s.steps {
		s.steps[h] = s.steps[h][:0]
	}
	steps, predicted := sim.Run(s.st, intensity, enc, m.chip.Opt.Steps, m.chip.Opt.BlockSize, opt, s)
	res, chip := s.acct.Report(predicted, steps)
	hops := make([]LinkStats, len(s.hops))
	copy(hops, s.hops)
	return m.finish(res, chip, hops, s.steps, opt.EventEngine)
}

// Classify implements sim.Backend: one image through all shards.
func (m *Multi) Classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, sim.Report) {
	s := m.getSession()
	defer m.sessions.Put(s)
	return m.classifyOne(s, intensity, enc, sim.Options{})
}

// ClassifyEach implements sim.Backend through the shared sim.Each fan-out,
// like the single-chip backends: images run in parallel across
// Options.Workers, each once through the whole network on one worker's
// session. Host execution is therefore image-parallel; the chips' layer
// pipeline is modeled, not executed — Report.Interval bounds its
// steady-state throughput and, under Options.EventEngine, the chip's Cycles
// and Latency come from the global pipeline simulation (cost.Pipeline)
// instead of the serial sum (see finish).
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
// ClassifyEach and reduces the chip reports exactly as core.Chip.ClassifyBatch
// does (core.Chip.Reduce: energies and latency averaged per classification,
// event counters summed), with link traffic summed over the batch and the
// pipeline interval averaged. The result's energy and latency are the
// link-inclusive per-image means.
func (m *Multi) ClassifyBatch(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) (perf.Result, sim.Report, error) {
	ress, sreps, err := m.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return perf.Result{}, sim.Report{}, err
	}
	n := float64(len(sreps))
	chips := make([]core.Report, len(sreps))
	var link LinkStats
	var hops []LinkStats
	var interval, energy, latency float64
	for i, sr := range sreps {
		d := sr.Detail.(Report)
		chips[i] = d.Chip
		if hops == nil {
			hops = make([]LinkStats, len(d.Hops))
		}
		for h, hs := range d.Hops {
			hops[h] = addLink(hops[h], hs)
		}
		link = addLink(link, d.Link)
		interval += d.Interval
		energy += ress[i].Energy
		latency += ress[i].Latency
	}
	res, avg := m.chip.Reduce(chips)
	res.Arch, res.Energy, res.Latency = m.name, energy/n, latency/n
	rep := Report{
		Ranges: m.Ranges(), Chip: avg, Link: link, Hops: hops,
		Interval: interval / n, Predicted: -1,
	}
	return res, sim.Report{Predicted: -1, Steps: m.chip.Opt.Steps, Detail: rep}, nil
}
