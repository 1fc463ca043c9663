package shard

import (
	"fmt"
	"sync"

	"resparc/internal/bitvec"
	"resparc/internal/core"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// token is one in-flight image moving down the shard pipeline.
type token struct {
	idx      int
	raster   []*bitvec.Bits // boundary spikes feeding the next stage
	parts    []core.Report  // per-shard accounting, filled stage by stage
	hops     []LinkStats    // per-boundary link accounting
	hopSteps [][]int64      // per-boundary per-timestep cycles (event engine)
}

// ClassifyEach implements sim.Backend with pipeline parallelism: one
// goroutine per shard, connected by channels, so while shard 1 integrates
// image i, shard 0 is already encoding image i+1 — every chip stays busy on
// a stream of inputs, which is where the partition's throughput comes from.
//
// Determinism is unchanged from the single-chip backends: stage 0 draws
// enc(i) in input order, each boundary raster is captured per image, and
// image i's outcome depends only on (inputs[i], enc(i)). Results are
// bit-identical to sequential Classify calls.
//
// Options.Workers is ignored — the parallelism degree is the shard count
// fixed at New. Options.EventEngine composes the merged Cycles and Latency
// with the global pipeline simulation instead of the serial sum (see
// finish). Options.EarlyExit is rejected: time-to-first-spike decoding needs
// the output layer's verdict before upstream shards stop, which a pipeline
// cannot know retroactively.
func (m *Multi) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("shard: empty batch")
	}
	if enc == nil {
		return nil, nil, fmt.Errorf("shard: nil encoder factory")
	}
	if opt.EarlyExit {
		return nil, nil, fmt.Errorf("shard: early exit is not supported on the multi-chip pipeline")
	}
	if m.chip.Opt.Trace != nil {
		return nil, nil, fmt.Errorf("shard: tracing is not supported with pipelined classification")
	}
	if err := m.Healthy(); err != nil {
		return nil, nil, err
	}
	S := len(m.ranges)
	evt := opt.EventEngine
	ress := make([]perf.Result, len(inputs))
	reps := make([]sim.Report, len(inputs))
	// chans[s] connects stage s to stage s+1; small buffers decouple stage
	// jitter without holding many rasters in flight.
	chans := make([]chan *token, S-1)
	for s := range chans {
		chans[s] = make(chan *token, 2)
	}
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := m.getWorker(s)
			defer m.workers[s].Put(w)
			process := func(tok *token) {
				var out []*bitvec.Bits
				if s < S-1 {
					out = m.newRaster(s)
				}
				var intensity tensor.Vec
				var e snn.Encoder
				if s == 0 {
					intensity = inputs[tok.idx]
					e = enc(tok.idx)
				}
				rep, run := m.runStage(s, w.st, w.acct, intensity, e, tok.raster, out, opt)
				tok.parts[s] = rep
				if s > 0 {
					m.rasters[s-1].Put(tok.raster)
				}
				if s < S-1 {
					tok.hops[s], tok.hopSteps[s] = m.linkCost(out, evt)
					tok.raster = out
					chans[s] <- tok
				} else {
					tok.raster = nil
					ress[tok.idx], reps[tok.idx] = m.finish(tok.parts, tok.hops, tok.hopSteps, run.Prediction, evt)
				}
			}
			if s == 0 {
				for idx := range inputs {
					process(&token{idx: idx, parts: make([]core.Report, S),
						hops: make([]LinkStats, S-1), hopSteps: make([][]int64, S-1)})
				}
			} else {
				for tok := range chans[s-1] {
					process(tok)
				}
			}
			if s < S-1 {
				close(chans[s])
			}
		}(s)
	}
	wg.Wait()
	return ress, reps, nil
}

// ClassifyBatch implements sim.Backend: it classifies every input through
// the pipeline and reduces to the batch aggregate — chip energies and
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
