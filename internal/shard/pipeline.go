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

// session is one worker's reusable state: a group of Net.GroupSize()
// functional States of the whole network that run a chunk of images in
// lockstep (sim.Run), each observed by its own image. Sessions are pooled
// across calls, so a stream of small batches does not rebuild them.
type session struct {
	ms   []snn.Member // member i runs on its own State, observed by imgs[i]
	imgs []*image
	runs []snn.RunResult
}

// image is one member's observer: its whole-chip accountant and its link
// tallies. Every timestep goes to the accountant, and the boundary raster
// of every non-final range — the output of its last layer — is priced on
// that range's hop, in timestep order.
type image struct {
	m     *Multi
	acct  *core.Accountant
	hops  []LinkStats // hops[h]: the image's traffic from shard h to shard h+1
	steps [][]int64   // steps[h][t]: hop h's transfer cycles at timestep t
}

// ObserveStep implements snn.Observer.
func (o *image) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	o.acct.ObserveStep(t, input, layers)
	for h := range o.hops {
		c := o.m.cfg.Link.Raster(layers[o.m.ranges[h].Hi-1])
		o.hops[h] = addLink(o.hops[h], LinkStats{
			FlitsSent: c.Sent, FlitsSuppressed: c.Suppressed, Cycles: c.Cycles, EnergyJ: c.EnergyJ,
		})
		o.steps[h] = append(o.steps[h], int64(c.Cycles))
	}
}

// reset clears the image's accounting for the next classification.
func (o *image) reset() {
	o.acct.Reset()
	clear(o.hops)
	for h := range o.steps {
		o.steps[h] = o.steps[h][:0]
	}
}

func (m *Multi) getSession() *session {
	if s, ok := m.sessions.Get().(*session); ok {
		return s
	}
	g := m.chip.Net.GroupSize()
	s := &session{ms: make([]snn.Member, g), imgs: make([]*image, g), runs: make([]snn.RunResult, g)}
	for i := range s.ms {
		acct, err := m.chip.NewAccountant(0, len(m.chip.Net.Layers))
		if err != nil {
			panic("shard: " + err.Error()) // a network has at least one layer
		}
		s.imgs[i] = &image{
			m: m, acct: acct,
			hops:  make([]LinkStats, len(m.ranges)-1),
			steps: make([][]int64, len(m.ranges)-1),
		}
		s.ms[i] = snn.Member{State: snn.NewState(m.chip.Net), Obs: s.imgs[i]}
	}
	return s
}

// classifyGroup runs a chunk of at most the session's group size, each
// image once through the whole network, on a worker's session and reads
// each multi-chip result off its run under the per-call options (see
// finish) into ress[i] and reps[i].
func (m *Multi) classifyGroup(s *session, inputs []tensor.Vec, encs []snn.Encoder, opt sim.Options, ress []perf.Result, reps []sim.Report) {
	ms := s.ms[:len(inputs)]
	for i := range ms {
		ms[i].Input, ms[i].Enc = inputs[i], encs[i]
		s.imgs[i].reset()
	}
	sim.Run(ms, m.chip.Opt.Steps, m.chip.Opt.BlockSize, opt, s.runs)
	for i := range ms {
		o := s.imgs[i]
		res, chip := o.acct.Report(s.runs[i].Prediction, s.runs[i].Steps)
		hops := make([]LinkStats, len(o.hops))
		copy(hops, o.hops)
		ress[i], reps[i] = m.finish(res, chip, hops, o.steps, opt.EventEngine)
		// A pooled session must not keep the caller's inputs alive.
		ms[i].Input, ms[i].Enc = nil, nil
	}
}

// classifyOne runs one image — a group of one — on a worker's session.
func (m *Multi) classifyOne(s *session, intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, sim.Report) {
	var res [1]perf.Result
	var rep [1]sim.Report
	m.classifyGroup(s, []tensor.Vec{intensity}, []snn.Encoder{enc}, opt, res[:], rep[:])
	return res[0], rep[0]
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
// session, in groups of Net.GroupSize() images. Host execution is therefore image-parallel; the chips' layer
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
	return sim.Each(inputs, enc, opt, m.chip.Net.GroupSize(), func() sim.Session {
		s := m.getSession()
		held = append(held, s)
		return func(in []tensor.Vec, encs []snn.Encoder, ress []perf.Result, reps []sim.Report) {
			m.classifyGroup(s, in, encs, opt, ress, reps)
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
