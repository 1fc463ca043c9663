// Package shard executes one mapped network across N RESPARC chips as a
// layer pipeline — the paper's scaling story (§3.1.3 tiles mPEs into cores
// and chips over a hierarchical interconnect) in the style of ISAAC's
// inter-tile pipelining and PUMA's device-agnostic graph partitioning.
//
// The partitioner cuts the layer stack into N contiguous ranges balanced by
// per-chip mPE load (taken from the existing internal/mapping placement), an
// inter-chip link model carries each boundary layer's spike raster as
// zero-checked packet flits with per-hop energy/latency accounting, and the
// chips' layer pipeline is modeled: Report.Interval bounds its steady-state
// throughput and, under sim.Options.EventEngine, the shared pipeline
// makespan (cost.Pipeline) composes the shards' stage grids and the hops
// into one pipelined latency.
//
// Host execution is independent of that model. ClassifyEach fans images out
// over sim.Options.Workers through sim.Each, like the single-chip backends,
// and each image runs through every shard stage in order on one worker's
// pooled session — no goroutine or channel per shard.
//
// Equivalence is exact, not approximate: the shards do not re-map the
// network. Every shard charges the one shared core.Chip's accounting for its
// own layer range (core.Accountant), boundary spikes are replayed
// bit-identically into the downstream shard, and the merged report
// concatenates the per-layer accounting in global layer order — so
// predictions, event counters and summed chip energy are bit-identical to
// single-chip execution, with the link cost reported separately on top.
package shard

import (
	"fmt"
	"sync"

	"resparc/internal/bitvec"
	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
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
	chip    *core.Chip
	cfg     Config
	name    string
	ranges  []Range
	subnets []*snn.Network
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
	subnets := make([]*snn.Network, len(ranges))
	for i, r := range ranges {
		in := chip.Net.Input
		if r.Lo > 0 {
			in = layers[r.Lo].In
		}
		sub, err := snn.NewNetwork(fmt.Sprintf("%s/shard%d", chip.Net.Name, i), in, layers[r.Lo:r.Hi]...)
		if err != nil {
			return nil, fmt.Errorf("shard: sub-network %d: %w", i, err)
		}
		subnets[i] = sub
	}
	m := &Multi{
		chip: chip, cfg: cfg, ranges: ranges, subnets: subnets,
		name: fmt.Sprintf("%s-x%d", chip.Name(), len(ranges)),
	}
	return m, nil
}

// Name implements sim.Backend ("resparc-x4" for a 4-shard pipeline).
func (m *Multi) Name() string { return m.name }

// Network implements sim.Backend.
func (m *Multi) Network() *snn.Network { return m.chip.Net }

// Healthy implements sim.Backend, delegating to the underlying chip (every
// shard charges the same chip, so its fault state gates them all).
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
	// Shards holds each shard's slice of the chip accounting (LayerCycles /
	// LayerEnergies cover that shard's range only).
	Shards []core.Report
	// Chip is the merged accounting across shards — bit-identical to the
	// single-chip report of the same classification (link cost excluded).
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

// linkCost charges one boundary's raster (all timesteps) to the hop model.
// When perStep is true (event engine) it additionally returns each
// timestep's transfer occupancy in cycles — the hop durations the pipelined
// makespan serializes.
func (m *Multi) linkCost(raster []*bitvec.Bits, perStep bool) (LinkStats, []int64) {
	var st LinkStats
	var steps []int64
	if perStep {
		steps = make([]int64, 0, len(raster))
	}
	for _, bits := range raster {
		h := m.cfg.Link.Raster(bits)
		st.FlitsSent += h.Sent
		st.FlitsSuppressed += h.Suppressed
		st.EnergyJ += h.EnergyJ
		st.Cycles += h.Cycles
		if perStep {
			steps = append(steps, int64(h.Cycles))
		}
	}
	return st, steps
}

// runStage runs shard s over one image on caller-owned state, charging the
// shard's accountant (reset first), and returns the shard's report and its
// decoded class. For s > 0 the image's input is the upstream boundary
// raster in; for s < last the shard's boundary output is captured into out.
func (m *Multi) runStage(s int, st *snn.State, acct *core.Accountant, intensity tensor.Vec, enc snn.Encoder,
	in, out []*bitvec.Bits, opt sim.Options) (core.Report, int) {
	acct.Reset()
	var obs snn.Observer = acct
	if out != nil {
		obs = &snn.CaptureObserver{Inner: acct, Out: out}
	}
	if s > 0 {
		enc = &snn.ReplayEncoder{Raster: in}
		intensity = nil
	}
	steps, predicted := sim.Run(st, intensity, enc, m.chip.Opt.Steps, m.chip.Opt.BlockSize, opt, obs)
	_, rep := acct.Report(predicted, steps)
	if opt.EventEngine {
		rep.Pipeline(m.chip.Opt.Params.NCCycle())
	}
	return rep, predicted
}

// finish merges the per-shard reports of one image into the multi-chip
// result. The chip accounting concatenates in global layer order and reduces
// through the same perf.SumRESPARC as the single-chip observer, so Chip is
// bit-identical to a single-chip run; the link cost rides on top of the
// returned perf.Result.
//
// By default the merged Cycles are the serial sum of the shards' stages and
// the hops' closed-form link cycles ride on top of the latency. When
// pipelined (sim.Options.EventEngine) the merged Cycles and Latency come
// from one global pipeline DES over every shard's stage grid plus the
// serialized, credit-limited inter-chip hops — link time overlaps
// computation instead of being added on top, and each hop's WaitCycles
// records the backpressure it suffered.
func (m *Multi) finish(parts []core.Report, hops []LinkStats, hopSteps [][]int64, predicted int, pipelined bool) (perf.Result, sim.Report) {
	chip := m.mergeChip(parts)
	chip.Predicted = predicted
	ncc := m.chip.Opt.Params.NCCycle()
	steps := m.chip.Opt.Steps
	linkSeconds := 0.0
	if pipelined {
		grids := make([][][]cost.Stage, len(parts))
		for s := range parts {
			grids[s] = parts[s].Stages
		}
		var pipe cost.Pipeline
		makespan, lw, busWait := pipe.Makespan(grids, hopSteps, m.cfg.Link.RecvBuf)
		for h := range lw {
			hops[h].WaitCycles = int(lw[h])
		}
		chip.Counts.Cycles = int(makespan)
		chip.BusWait = busWait
		chip.Latency = float64(makespan) * ncc
	} else {
		var cyc int
		for _, h := range hops {
			cyc += h.Cycles
		}
		linkSeconds = float64(cyc) * ncc
	}
	var link LinkStats
	interval := 0.0
	for _, h := range hops {
		link = addLink(link, h)
		// Hops are independent point-to-point channels: only the busiest
		// one bounds the initiation interval.
		if s := float64(h.Cycles) * ncc; s > interval {
			interval = s
		}
	}
	for _, p := range parts {
		if p.Latency > interval {
			interval = p.Latency
		}
	}
	rep := Report{
		Ranges: m.Ranges(), Shards: parts, Chip: chip, Link: link, Hops: hops,
		Interval: interval, Predicted: predicted,
	}
	res := perf.Result{
		Arch:    m.name,
		Network: m.chip.Net.Name,
		Energy:  chip.Energy.Total() + link.EnergyJ,
		Latency: chip.Latency + linkSeconds,
		Steps:   steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = m.sparsity(chip.LayerSpikes, 1, steps)
	return res, sim.Report{Predicted: predicted, Steps: steps, Detail: rep}
}

// sparsity mirrors the single-chip observer's spike-sparsity reduction over
// the merged per-layer spike counts (images > 1 averages a batch).
func (m *Multi) sparsity(layerSpikes []int, images, steps int) (float64, []float64) {
	if images <= 0 || steps <= 0 || len(layerSpikes) == 0 {
		return 0, nil
	}
	total := 0
	occ := make([]float64, len(layerSpikes))
	for li, sp := range layerSpikes {
		total += sp
		if n := m.chip.Net.Layers[li].OutSize(); n > 0 {
			occ[li] = float64(sp) / (float64(images) * float64(steps) * float64(n))
		}
	}
	return float64(total) / (float64(images) * float64(steps)), occ
}

// mergeChip concatenates the shards' accounting slices in global layer
// order and reduces them exactly as the single-chip observer does.
func (m *Multi) mergeChip(parts []core.Report) core.Report {
	var out core.Report
	for _, p := range parts {
		out.Counts = addCounters(out.Counts, p.Counts)
		out.BusCycles += p.BusCycles
		out.Breakdown = addBreakdown(out.Breakdown, p.Breakdown)
		out.LayerCycles = append(out.LayerCycles, p.LayerCycles...)
		out.LayerEnergies = append(out.LayerEnergies, p.LayerEnergies...)
		out.LayerSpikes = append(out.LayerSpikes, p.LayerSpikes...)
		if p.TraceError != nil && out.TraceError == nil {
			out.TraceError = p.TraceError
		}
	}
	out.Energy = perf.SumRESPARC(out.LayerEnergies)
	out.Latency = float64(out.Counts.Cycles) * m.chip.Opt.Params.NCCycle()
	return out
}

func addCounters(a, b core.Counters) core.Counters {
	a.Cycles += b.Cycles
	a.BusWords += b.BusWords
	a.BusWordsSuppressed += b.BusWordsSuppressed
	a.PacketsDelivered += b.PacketsDelivered
	a.PacketsSuppressed += b.PacketsSuppressed
	a.MCAActivations += b.MCAActivations
	a.RowsDriven += b.RowsDriven
	a.Integrations += b.Integrations
	a.Spikes += b.Spikes
	a.ExtTransfers += b.ExtTransfers
	return a
}

func addBreakdown(a, b core.CycleBreakdown) core.CycleBreakdown {
	a.Sync += b.Sync
	a.Bus += b.Bus
	a.Delivery += b.Delivery
	a.Integrate += b.Integrate
	a.Drain += b.Drain
	return a
}
