// Package shard models one mapped network across N RESPARC chips as a layer
// pipeline — the paper's scaling story (§3.1.3 tiles mPEs into cores and
// chips over a hierarchical interconnect), in the style of ISAAC's
// inter-tile pipelining and PUMA's graph partitioning.
//
// The partitioner cuts the layer stack into N contiguous ranges balanced by
// per-chip mPE load (taken from the chip's mapping). A sharded chip is a
// model over the chip's own run, not a second backend: every call
// classifies on the chip (core.Chip) and reads each image's report through
// cost.Shards, the function the mapper prices placements with. Shard s owns
// columns [Lo, Hi) of the report's stage grid; each hop prices its boundary
// raster from the nonzero words the grid records for the next shard's first
// layer. Predictions, event counters and chip energy are the single-chip
// report itself, with the link cost reported on top; host execution
// (pooled sessions, sim.Options.Workers) is the chip's.
package shard

import (
	"fmt"

	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// LinkStats accumulate inter-chip traffic for one classification (or, from
// ClassifyBatch, summed over a batch).
type LinkStats = cost.LinkStats

// Config selects the shard topology.
type Config struct {
	// Shards is the chip count (clamped to the layer count).
	Shards int
	// Cuts, when non-empty, overrides the balanced partitioner with explicit
	// cut points (ascending layer indices where a new chip begins, exclusive
	// of 0) — typically the ShardCuts of an optimized mapping.Placement.
	// Shards is ignored; the chip count is len(Cuts)+1.
	Cuts []int
	// MaxMPEsPerChip, when positive, is the per-chip capacity: New fails
	// if the partition places more mPEs than this on any one chip.
	MaxMPEsPerChip int
	// Link models each chip-to-chip hop (zero value selects
	// cost.DefaultLink of the chip's energy parameters).
	Link cost.Link
}

// Range is a contiguous global layer range [Lo, Hi) placed on one chip.
type Range struct{ Lo, Hi int }

// Multi runs one mapped network across N chips. It implements sim.Backend
// under the name "<chip>-xN" (e.g. "resparc-x4").
type Multi struct {
	chip   *core.Chip
	cfg    Config
	name   string
	ranges []Range
	cuts   []int
	// inWords[j] is the 64-bit word count of layer j's input: the flits a
	// hop into layer j zero-checks per raster.
	inWords []int
}

var _ sim.Backend = (*Multi)(nil)

// New partitions the chip's layer stack into cfg.Shards ranges that
// minimize the maximum per-chip mPE count (cost.MinimaxCuts over the
// placement span of each layer), or into the ranges cfg.Cuts gives.
func New(chip *core.Chip, cfg Config) (*Multi, error) {
	if chip == nil {
		return nil, fmt.Errorf("shard: nil chip")
	}
	if cfg.Shards < 1 && len(cfg.Cuts) == 0 {
		return nil, fmt.Errorf("shard: %d shards", cfg.Shards)
	}
	layers := chip.Net.Layers
	cfg.Link = cfg.Link.OrDefault(chip.Opt.Params)
	spans := make([]int, len(layers))
	inWords := make([]int, len(layers))
	for li, l := range layers {
		lm := &chip.Map.Layers[li]
		spans[li] = lm.MPELast - lm.MPEFirst + 1
		inWords[li] = (l.InSize() + cost.PacketWidth - 1) / cost.PacketWidth
	}
	cuts := cfg.Cuts
	if len(cuts) == 0 {
		cuts = cost.MinimaxCuts(spans, cfg.Shards)
	}
	var ranges []Range
	prev := 0
	for _, c := range cuts {
		if c <= prev || c >= len(layers) {
			return nil, fmt.Errorf("shard: cuts %v not strictly ascending in (0,%d)", cuts, len(layers))
		}
		ranges = append(ranges, Range{Lo: prev, Hi: c})
		prev = c
	}
	ranges = append(ranges, Range{Lo: prev, Hi: len(layers)})
	if err := cost.CheckCapacity(spans, cuts, cfg.MaxMPEsPerChip); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return &Multi{
		chip: chip, cfg: cfg, ranges: ranges, cuts: append([]int(nil), cuts...), inWords: inWords,
		name: fmt.Sprintf("%s-x%d", chip.Name(), len(ranges)),
	}, nil
}

// Name implements sim.Backend ("resparc-x4" for a 4-shard pipeline).
func (m *Multi) Name() string { return m.name }

// Network implements sim.Backend.
func (m *Multi) Network() *snn.Network { return m.chip.Net }

// Healthy implements sim.Backend, delegating to the underlying chip (the
// shards slice the same chip's run, so its fault state gates them all).
func (m *Multi) Healthy() error { return m.chip.Healthy() }

// Ranges returns the partition: one contiguous layer range per shard.
func (m *Multi) Ranges() []Range {
	return append([]Range(nil), m.ranges...)
}

// Report is the multi-chip outcome of one classification.
type Report struct {
	// Ranges is the layer partition, one entry per shard.
	Ranges []Range
	// Chip is the chip accounting of the classification: the single-chip
	// report of the same run (link cost excluded), except that under
	// sim.Options.EventEngine Cycles, Latency and BusWait come from the
	// global pipeline of shards and hops. Its Stages grid covers every layer;
	// shard s owns columns [Ranges[s].Lo, Ranges[s].Hi) of each timestep.
	Chip core.Report
	// Link is the inter-chip traffic summed over every hop, apart from
	// Chip so that the chip accounting stays comparable to one chip's.
	Link LinkStats
	// Hops is the per-boundary accounting: Hops[s] carries shard s's
	// boundary spikes to shard s+1.
	Hops []LinkStats
	// Interval is the modeled pipeline initiation interval in seconds per
	// image (cost.Shards.Interval): the slowest shard or the busiest single
	// hop, which bounds the chips' steady-state throughput.
	Interval float64
	// Predicted is the decoded class from the final shard.
	Predicted int
}

// ImagesPerSec is the modeled steady-state throughput of the pipeline.
func (r Report) ImagesPerSec() float64 {
	if r.Interval == 0 {
		return 0
	}
	return 1 / r.Interval
}

// model reads the multi-chip result of one image off the chip's result and
// report of it (cost.Shards on sh's buffers) into a Report that owns the
// ranges and hops buffers. The hops' link cycles ride on top of the serial
// latency; when pipelined (sim.Options.EventEngine) Cycles, Latency and
// BusWait come from one pipeline over the shards and the credit-limited
// hops, where link time overlaps computation.
func (m *Multi) model(sh *cost.Shards, res perf.Result, srep sim.Report, pipelined bool, ranges []Range, hops []LinkStats) (perf.Result, sim.Report) {
	chip := srep.Detail.(core.Report)
	ncc := m.chip.Opt.Params.NCCycle()
	sh.Run(chip.Stages, m.inWords, m.cuts, m.cfg.Link, pipelined)
	copy(ranges, m.ranges)
	rep := Report{Ranges: ranges, Hops: hops, Interval: float64(sh.Interval()) * ncc, Predicted: chip.Predicted}
	for h, hs := range sh.Hops {
		hops[h], rep.Link = hs, rep.Link.Add(hs)
	}
	linkSeconds := float64(rep.Link.Cycles) * ncc
	if pipelined {
		chip.Counts.Cycles, chip.BusWait = int(sh.Makespan), sh.BusWait
		chip.Latency = float64(sh.Makespan) * ncc
		linkSeconds = 0
	}
	rep.Chip = chip
	res.Arch, res.Energy, res.Latency = m.name, chip.Energy.Total()+rep.Link.EnergyJ, chip.Latency+linkSeconds
	srep.Detail = rep
	return res, srep
}

// Classify implements sim.Backend: one image through all shards.
func (m *Multi) Classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, sim.Report) {
	res, srep := m.chip.Classify(intensity, enc)
	var sh cost.Shards
	return m.model(&sh, res, srep, false, make([]Range, len(m.ranges)), make([]LinkStats, len(m.cuts)))
}

// ClassifyEach implements sim.Backend: the chip classifies every image
// (core.Chip.ClassifyEach, so results are bit-identical for any worker
// count) and each report is read as a multi-chip result (see model). The
// chips' layer pipeline is modeled, not executed.
//
// Options.EarlyExit is rejected: time-to-first-spike decoding needs the
// output layer's verdict before upstream shards stop, which a chip pipeline
// cannot know retroactively.
func (m *Multi) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	if opt.EarlyExit {
		return nil, nil, fmt.Errorf("shard: early exit is not supported on the multi-chip pipeline")
	}
	// The chip's own makespan would be discarded: the shards' pipeline
	// replaces it.
	pipelined := opt.EventEngine
	opt.EventEngine = false
	ress, sreps, err := m.chip.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return nil, nil, err
	}
	// One backing array each holds every image's Ranges and Hops.
	var sh cost.Shards
	S, H := len(m.ranges), len(m.cuts)
	ranges, hops := make([]Range, len(ress)*S), make([]LinkStats, len(ress)*H)
	for i := range ress {
		ress[i], sreps[i] = m.model(&sh, ress[i], sreps[i], pipelined, ranges[i*S:(i+1)*S:(i+1)*S], hops[i*H:(i+1)*H:(i+1)*H])
	}
	return ress, sreps, nil
}

// ClassifyBatch implements sim.Backend: it classifies every input through
// ClassifyEach and reduces the chip reports as core.Chip.ClassifyBatch does
// (core.Chip.Reduce), with link traffic summed over the batch and the
// interval, energy and latency (link included) averaged per image.
func (m *Multi) ClassifyBatch(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) (perf.Result, sim.Report, error) {
	ress, sreps, err := m.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return perf.Result{}, sim.Report{}, err
	}
	rep := Report{Ranges: m.Ranges(), Hops: make([]LinkStats, len(m.cuts)), Predicted: -1}
	chips := make([]core.Report, len(sreps))
	var energy, latency float64
	for i, sr := range sreps {
		d := sr.Detail.(Report)
		chips[i] = d.Chip
		for h, hs := range d.Hops {
			rep.Hops[h] = rep.Hops[h].Add(hs)
		}
		rep.Link = rep.Link.Add(d.Link)
		rep.Interval += d.Interval
		energy += ress[i].Energy
		latency += ress[i].Latency
	}
	n := float64(len(sreps))
	res, avg := m.chip.Reduce(chips)
	rep.Chip, rep.Interval = avg, rep.Interval/n
	res.Arch, res.Energy, res.Latency = m.name, energy/n, latency/n
	return res, sim.Report{Predicted: -1, Steps: m.chip.Opt.Steps, Detail: rep}, nil
}
