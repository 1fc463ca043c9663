// Package shard models one mapped network across N RESPARC chips as a layer
// pipeline — the paper's scaling story (§3.1.3 tiles mPEs into cores and
// chips over a hierarchical interconnect) in the style of ISAAC's inter-tile
// pipelining and PUMA's device-agnostic graph partitioning.
//
// The partitioner cuts the layer stack into N contiguous ranges balanced by
// per-chip mPE load (taken from the existing internal/mapping placement), an
// inter-chip link model prices each boundary layer's spike raster as
// zero-checked packet flits with per-hop energy/latency accounting, and the
// chips' layer pipeline is modeled: Report.Interval bounds its steady-state
// throughput and, under sim.Options.EventEngine, the shared pipeline
// makespan (cost.Pipeline) composes the shards' stage grids and the hops
// into one pipelined latency.
//
// A multi-chip run is a model placed over the one functional run of the
// network, not a different run. Each image runs once through the whole
// network on a whole-chip accountant (core.Accountant) while an observer
// prices every boundary raster on its hop, and every shard figure is read
// off that run by layer range: shard s owns layers [Lo, Hi) of the chip's
// per-layer cycles and columns [Lo, Hi) of its stage grid. The chip
// accounting is therefore the single-chip report itself — predictions,
// event counters and chip energy are bit-identical to single-chip
// execution, with the link cost reported separately on top.
//
// Host execution is independent of that model. ClassifyEach fans images out
// over sim.Options.Workers through sim.Each, like the single-chip backends,
// each image on one worker's pooled session — no goroutine or channel per
// shard.
package shard

import (
	"fmt"
	"sync"

	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
)

// LinkStats accumulate inter-chip traffic for one classification (or, from
// ClassifyBatch, summed over a batch).
type LinkStats struct {
	FlitsSent       int
	FlitsSuppressed int
	Cycles          int
	EnergyJ         float64
	// WaitCycles is the time rasters sat at the sender pad after being ready
	// — channel serialization plus receive-buffer backpressure. Only the
	// pipelined reduction (sim.Options.EventEngine) models flow control; it
	// is zero otherwise.
	WaitCycles int
}

func addLink(a, b LinkStats) LinkStats {
	a.FlitsSent += b.FlitsSent
	a.FlitsSuppressed += b.FlitsSuppressed
	a.Cycles += b.Cycles
	a.EnergyJ += b.EnergyJ
	a.WaitCycles += b.WaitCycles
	return a
}

// Config selects the shard topology.
type Config struct {
	// Shards is the chip count (clamped to the layer count).
	Shards int
	// Cuts, when non-empty, overrides the balanced partitioner with explicit
	// cut points (ascending layer indices where a new chip begins, exclusive
	// of 0) — typically the ShardCuts of an optimized mapping.Placement.
	// Shards is ignored; the chip count is len(Cuts)+1.
	Cuts []int
	// MaxMPEsPerChip, when positive, is the per-chip capacity: the
	// partitioner fails if the balanced cut would place more mPEs than this
	// on any one chip.
	MaxMPEsPerChip int
	// Link models each chip-to-chip hop (zero value selects
	// cost.DefaultLink of the chip's energy parameters).
	Link cost.Link
}

// Range is a contiguous global layer range [Lo, Hi) placed on one chip.
type Range struct {
	Lo, Hi int
}

// Multi runs one mapped network across N chips. It implements sim.Backend
// under the name "<chip>-xN" (e.g. "resparc-x4").
type Multi struct {
	chip   *core.Chip
	cfg    Config
	name   string
	ranges []Range
	// sessions recycles worker sessions across classification calls.
	sessions sync.Pool
}

var _ sim.Backend = (*Multi)(nil)

// New partitions the chip's layer stack into cfg.Shards balanced ranges.
// The partitioner minimizes the maximum per-chip mPE count (the placement
// span each layer already occupies in the chip's mapping) over all
// contiguous cuts (cost.MinimaxCuts) — the capacity heuristic: mPEs are the
// unit of crossbar real estate, so the widest chip bounds both silicon and
// the pipeline's slowest stage.
func New(chip *core.Chip, cfg Config) (*Multi, error) {
	if chip == nil {
		return nil, fmt.Errorf("shard: nil chip")
	}
	if cfg.Shards < 1 && len(cfg.Cuts) == 0 {
		return nil, fmt.Errorf("shard: %d shards", cfg.Shards)
	}
	layers := chip.Net.Layers
	link, err := cfg.Link.OrDefault(chip.Opt.Params)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	cfg.Link = link
	spans := make([]int, len(layers))
	for li := range layers {
		lm := &chip.Map.Layers[li]
		spans[li] = lm.MPELast - lm.MPEFirst + 1
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
		chip: chip, cfg: cfg, ranges: ranges,
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

// Chip returns the underlying single-chip simulator whose accounting the
// shards slice.
func (m *Multi) Chip() *core.Chip { return m.chip }

// Ranges returns the partition (one contiguous global layer range per
// shard).
func (m *Multi) Ranges() []Range {
	out := make([]Range, len(m.ranges))
	copy(out, m.ranges)
	return out
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
	// Link is the inter-chip traffic summed over every hop (reported
	// separately so the chip accounting stays comparable to single-chip
	// runs).
	Link LinkStats
	// Hops is the per-boundary accounting: Hops[s] carries shard s's
	// boundary spikes to shard s+1.
	Hops []LinkStats
	// Interval is the modeled pipeline initiation interval in seconds per
	// image: the slowest of the shard stages and the busiest single hop
	// (each hop is its own point-to-point channel), which bounds the
	// steady-state throughput of the modeled chip pipeline.
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

// columns returns shard r's part of a whole-chip stage grid: the stages of
// global layers [r.Lo, r.Hi) at every timestep.
func columns(grid [][]cost.Stage, r Range) [][]cost.Stage {
	out := make([][]cost.Stage, len(grid))
	for t, row := range grid {
		out[t] = row[r.Lo:r.Hi]
	}
	return out
}

// finish reads the multi-chip result of one image off its whole-chip run:
// res and chip are the accountant's serial-sum reduction, hops the image's
// per-hop traffic and hopSteps each hop's per-timestep transfer cycles.
// Shard s's stage latency is the serial sum of its layers' cycles, or, when
// pipelined, the makespan of its stage-grid columns alone.
//
// By default Cycles stay the serial sum of every stage and the hops'
// closed-form link cycles ride on top of the latency. When pipelined
// (sim.Options.EventEngine) Cycles and Latency come from one global pipeline
// DES over every shard's stage-grid columns plus the serialized,
// credit-limited inter-chip hops — link time overlaps computation instead of
// being added on top, and each hop's WaitCycles records the backpressure it
// suffered.
func (m *Multi) finish(res perf.Result, chip core.Report, hops []LinkStats, hopSteps [][]int64, pipelined bool) (perf.Result, sim.Report) {
	ncc := m.chip.Opt.Params.NCCycle()
	// Hops are independent point-to-point channels, so the initiation
	// interval is bounded by the slowest shard stage and the busiest single
	// hop.
	interval := 0.0
	if pipelined {
		grids := make([][][]cost.Stage, len(m.ranges))
		var pipe cost.Pipeline
		for s, r := range m.ranges {
			grids[s] = columns(chip.Stages, r)
			own, _, _ := pipe.Makespan(grids[s:s+1], nil, 0)
			interval = max(interval, float64(own)*ncc)
		}
		makespan, lw, busWait := pipe.Makespan(grids, hopSteps, m.cfg.Link.RecvBuf)
		for h := range lw {
			hops[h].WaitCycles = int(lw[h])
		}
		chip.Counts.Cycles = int(makespan)
		chip.BusWait = busWait
		chip.Latency = float64(makespan) * ncc
	} else {
		for _, r := range m.ranges {
			cyc := 0
			for _, c := range chip.LayerCycles[r.Lo:r.Hi] {
				cyc += c
			}
			interval = max(interval, float64(cyc)*ncc)
		}
	}
	var link LinkStats
	for _, h := range hops {
		link = addLink(link, h)
		interval = max(interval, float64(h.Cycles)*ncc)
	}
	linkSeconds := 0.0
	if !pipelined {
		linkSeconds = float64(link.Cycles) * ncc
	}
	res.Arch = m.name
	res.Energy = chip.Energy.Total() + link.EnergyJ
	res.Latency = chip.Latency + linkSeconds
	rep := Report{
		Ranges: m.Ranges(), Chip: chip, Link: link, Hops: hops,
		Interval: interval, Predicted: chip.Predicted,
	}
	return res, sim.Report{Predicted: chip.Predicted, Steps: res.Steps, Detail: rep}
}
