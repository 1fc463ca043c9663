package mapping

import (
	"fmt"
	"sync"

	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/energy"
	"resparc/internal/parallel"
	"resparc/internal/perf"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// This file is the mapper's cost model: it prices a candidate placement —
// per-layer MCA sizes, NeuroCell alignment, shard cuts — without building a
// chip, on the architecture's own model: the row gather and its tally
// (Gather.Visit), the pricing of tallies (cost.Energy), the stage-duration
// formula, the link model and the pipeline makespan are the ones
// internal/core and internal/shard simulate with (internal/cost). It
// replays a probe input's spike rasters: rasters depend only on (input,
// encoder), never on the mapping, so they are captured once, each (layer,
// size) pairing's probe is tallied once, and every candidate is a cheap
// walk over the cached tallies — priced once per layer — plus one pipeline
// makespan. Predictions are untouched by mapping, so the mapper only ever
// trades modeled energy/latency/traffic.

// Weights blend the normalized cost terms into the scalar objective the
// mapper minimizes: each term is the candidate's value relative to the
// greedy baseline, so a weight of 1 means "a 1% saving here is worth a 1%
// saving there".
type Weights struct {
	// Energy weights modeled energy per classification (chip + link).
	Energy float64
	// Latency weights the pipelined makespan of the probe classification.
	Latency float64
	// Traffic weights inter-chip link energy (relative to baseline total
	// energy), discouraging cut placements that push dense boundaries
	// off-chip even when the pipeline hides their latency.
	Traffic float64
}

// DefaultWeights returns the balanced objective: energy and latency at
// parity (minimizing their product's first-order variation, i.e. EDP), with
// a small traffic term.
func DefaultWeights() Weights { return Weights{Energy: 1, Latency: 1, Traffic: 0.25} }

// Constraints parameterize a Mapper.Plan call: the hardware hierarchy, the
// admissible crossbar sizes, the shard topology, and the probe workload the
// cost model prices candidates on. Build one with DefaultConstraints and
// override fields; a zero Constraints is not valid (EventDriven would be
// off, unlike any shipped configuration).
type Constraints struct {
	// Hierarchy fixes MCAsPerMPE/MPEsPerNC/Tech; its MCASize is the uniform
	// baseline size (what Greedy plans, and the legacy direct path used).
	Hierarchy Config
	// Sizes are the per-layer MCA sizes the mapper may choose from,
	// defaulting to the paper's {32, 64, 128} filtered to the technology's
	// reliable maximum.
	Sizes []int
	// Shards is the chip count (1 = single chip, no cuts).
	Shards int
	// MaxMPEsPerChip, when positive, rejects candidates placing more mPEs
	// than this on any one chip.
	MaxMPEsPerChip int
	// Steps is the probe classification's timestep count.
	Steps int
	// Seed seeds the probe encoder (the cost model uses Seed+7 fork 0 — the
	// stream sample 0 sees under the experiment harness's convention).
	Seed int64
	// MaxProb is the probe encoder's peak spike probability.
	MaxProb float64
	// Probe is the probe intensity vector; nil synthesizes a uniform
	// mid-gray input of the network's input size.
	Probe tensor.Vec
	// Params are the energy/timing parameters of the modeled chip.
	Params energy.Params
	// PacketWidth is the spike-packet width in bits.
	PacketWidth int
	// EventDriven models the §3.2 zero-check gating (on in every shipped
	// configuration; DefaultConstraints sets it).
	EventDriven bool
	// Link models each chip-to-chip hop (zero value selects
	// cost.DefaultLink of Params).
	Link cost.Link
	// Weights blend the objective (zero value selects DefaultWeights).
	Weights Weights
}

// DefaultConstraints returns the paper-default search space for a hierarchy:
// sizes {32, 64, 128} (technology permitting), a 16-step mid-gray probe,
// 45nm energies, event-driven gating on, balanced weights.
func DefaultConstraints(cfg Config) Constraints {
	return Constraints{
		Hierarchy:   cfg,
		Shards:      1,
		Steps:       16,
		Seed:        1,
		MaxProb:     0.8,
		Params:      energy.Default45nm(),
		PacketWidth: cost.PacketWidth,
		EventDriven: true,
	}
}

// normalize fills defaulted fields in place and validates the rest.
func (c *Constraints) normalize() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{32, 64, 128}
	}
	sizes := make([]int, 0, len(c.Sizes))
	for _, n := range c.Sizes {
		if n < 2 {
			return fmt.Errorf("mapping: candidate MCA size %d", n)
		}
		if n <= c.Hierarchy.Tech.MaxSize {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		return fmt.Errorf("mapping: no candidate size permitted by %s (max %d)",
			c.Hierarchy.Tech.Name, c.Hierarchy.Tech.MaxSize)
	}
	c.Sizes = sizes
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Steps < 1 {
		c.Steps = 16
	}
	if c.MaxProb <= 0 {
		c.MaxProb = 0.8
	}
	if c.PacketWidth < 1 || c.PacketWidth > 64 {
		return fmt.Errorf("mapping: packet width %d out of [1,64]", c.PacketWidth)
	}
	c.Link = c.Link.OrDefault(c.Params)
	if (c.Weights == Weights{}) {
		c.Weights = DefaultWeights()
	}
	return nil
}

// sizeIndex returns the index of size n in the candidate set, or -1.
func (c *Constraints) sizeIndex(n int) int {
	for i, s := range c.Sizes {
		if s == n {
			return i
		}
	}
	return -1
}

// candidate is one point of the mapper's search space.
type candidate struct {
	// size[li] indexes Constraints.Sizes.
	size []int
	// align[li] starts layer li on a fresh NeuroCell.
	align []bool
	// cuts are the shard cut points (ascending layer indices, exclusive 0).
	cuts []int
}

func (c candidate) clone() candidate {
	return candidate{
		size:  append([]int(nil), c.size...),
		align: append([]bool(nil), c.align...),
		cuts:  append([]int(nil), c.cuts...),
	}
}

// copyFrom overwrites c with src, reusing c's slices.
func (c *candidate) copyFrom(src candidate) {
	c.size = append(c.size[:0], src.size...)
	c.align = append(c.align[:0], src.align...)
	c.cuts = append(c.cuts[:0], src.cuts...)
}

// stepCost is one (layer, size) pairing's position-independent activity on
// one probe timestep that the stage-duration formula reads: the packets
// delivered and the time-multiplexing depth reached.
type stepCost struct{ delivered, maxMux int32 }

// sizeStats caches everything position-independent about mapping one layer
// onto one candidate MCA size: the packing's footprint, its crossbar-factor
// classes, its activity tallied over the whole probe (bus words aside: they
// depend on where the layer lands) and what each probe step's stage
// duration needs. Layers always start on a fresh mPE, so none of this
// depends on where the layer lands.
type sizeStats struct {
	mcas, mpeSpan int
	factors       []float64
	tally         cost.Tally
	step          []stepCost
}

// evaluator prices candidates for one (network, constraints) pair. It is
// immutable after newEvaluator, so concurrent annealing chains share one.
type evaluator struct {
	net  *snn.Network
	cons Constraints

	sramAccess float64
	// in[li][t] is layer li's input raster on probe step t (layer 0 sees the
	// encoded input); out[li][t] its output raster.
	in, out [][]*bitvec.Bits
	// busSent: packet words of in[li][t] surviving at the chip packet
	// width; busSentSum and busTotalSum: the surviving and all packet words
	// of in[li] summed over the probe. spikes: out[li][t] popcount. words:
	// the nonzero 64-bit words of in[li][t] (cost.Stage.Words); inWords[li]:
	// all 64-bit words of in[li].
	busSent                 [][]int32
	busSentSum, busTotalSum []int
	spikes, words           [][]int32
	inWords                 []int
	// stats[li][szIdx] is the cached packing of layer li at Sizes[szIdx].
	stats [][]*sizeStats
	// scratch recycles evaluate's per-candidate buffers (*evalScratch).
	scratch sync.Pool
}

// evalScratch is the scratch of one evaluate call: the multi-chip model's
// state, the candidate's layer positions and capacity spans, its bus flags
// and per-layer energies, and the (step, layer) stage grid with its row
// headers. Concurrent chains each take their own from the evaluator's pool.
type evalScratch struct {
	shards cost.Shards
	pos    []layerPos
	spans  []int
	cross  []bool
	layerE []perf.RESPARCEnergy
	grid   []cost.Stage
	rows   [][]cost.Stage
}

// grow returns s resized to n elements, reallocating only when its capacity
// is short; the contents are not preserved.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// InputSRAM is the chip's input SRAM for net, sized for the largest spike
// vector staged between layers (at least 1 KiB). The chip accountant and
// the cost model price bus words against its access energy.
func InputSRAM(net *snn.Network) energy.SRAM {
	maxBits := net.Input.Size()
	for _, l := range net.Layers {
		maxBits = max(maxBits, l.OutSize())
	}
	return energy.NewSRAM(max(maxBits/8, 1024))
}

// ObserveStep makes the evaluator the probe run's observer: it copies the
// input raster and every layer's output raster of step t.
func (ev *evaluator) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	ev.in[0][t].CopyFrom(input)
	for li, o := range layers {
		ev.out[li][t].CopyFrom(o)
	}
}

// newEvaluator captures the probe rasters and precomputes the per-(layer,
// size) packing statistics for every admissible size.
func newEvaluator(net *snn.Network, cons Constraints) (*evaluator, error) {
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("mapping: network %q has no layers", net.Name)
	}
	ev := &evaluator{net: net, cons: cons, sramAccess: InputSRAM(net).AccessEnergy()}

	probe := cons.Probe
	if probe == nil {
		probe = tensor.NewVec(net.Input.Size())
		probe.Fill(0.5)
	}
	if len(probe) != net.Input.Size() {
		return nil, fmt.Errorf("mapping: probe has %d intensities, input needs %d", len(probe), net.Input.Size())
	}

	// Capture the probe classification's rasters once: they depend only on
	// (input, encoder), never on any placement decision. Layer li+1's input
	// raster is layer li's output raster.
	L := len(net.Layers)
	raster := func(n int) []*bitvec.Bits {
		r := make([]*bitvec.Bits, cons.Steps)
		for t := range r {
			r[t] = bitvec.New(n)
		}
		return r
	}
	ev.in = [][]*bitvec.Bits{raster(net.Input.Size())}
	ev.out = make([][]*bitvec.Bits, L)
	for li, l := range net.Layers {
		ev.out[li] = raster(l.OutSize())
		if li+1 < L {
			ev.in = append(ev.in, ev.out[li])
		}
	}
	enc := snn.NewPoissonEncoder(cons.MaxProb, cons.Seed+7).ForkSeed(0)
	snn.NewState(net).RunBlockedK(probe, enc, cons.Steps, 0, ev)

	// Raster-only statistics (independent of any mapping decision).
	w := cons.PacketWidth
	ev.busSent = make([][]int32, L)
	ev.busSentSum = make([]int, L)
	ev.busTotalSum = make([]int, L)
	ev.spikes = make([][]int32, L)
	ev.words = make([][]int32, L)
	ev.inWords = make([]int, L)
	n := cons.Steps
	tables := make([]int32, 3*L*n) // every layer's busSent, spikes and words
	for li := 0; li < L; li++ {
		lt := tables[3*li*n : 3*(li+1)*n : 3*(li+1)*n]
		ev.busSent[li], ev.spikes[li], ev.words[li] = lt[:n:n], lt[n:2*n:2*n], lt[2*n:]
		for t := 0; t < n; t++ {
			zero, total := ev.in[li][t].ZeroPackets(w)
			sent := total - zero
			if !cons.EventDriven {
				sent = total
			}
			ev.busSent[li][t] = int32(sent)
			ev.busSentSum[li] += sent
			ev.busTotalSum[li] += total
			ev.spikes[li][t] = int32(ev.out[li][t].Count())
			zero, total = ev.in[li][t].ZeroPackets(cost.PacketWidth)
			ev.words[li][t], ev.inWords[li] = int32(total-zero), total
		}
	}

	// Per-(layer, size) packing statistics, built eagerly so the evaluator
	// is read-only for concurrent chains.
	S := len(cons.Sizes)
	ev.stats = make([][]*sizeStats, L)
	for li := range ev.stats {
		ev.stats[li] = make([]*sizeStats, S)
	}
	var mu sync.Mutex
	var firstErr error
	parallel.ForEach(L*S, parallel.Clamp(0, L*S), func(_, i int) {
		li, szIdx := i/S, i%S
		stats, err := ev.buildStats(li, szIdx)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		ev.stats[li][szIdx] = stats
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return ev, nil
}

// buildStats packs layer li at Sizes[szIdx] (position-free) and tallies
// the probe rasters through the packing's Gather — the same Visit the chip
// accountant tallies every step with — recording each step's stage inputs.
func (ev *evaluator) buildStats(li, szIdx int) (*sizeStats, error) {
	cfg := ev.cons.Hierarchy
	n := ev.cons.Sizes[szIdx]
	l := ev.net.Layers[li]
	lm, err := layerMappingFor(li, l, cfg, n)
	if err != nil {
		return nil, err
	}
	// Pack from mPE 0: a layer always starts on a fresh mPE, so the runs do
	// not depend on where it lands.
	for ai := range lm.MCAs {
		lm.MCAs[ai].MPE = ai / cfg.MCAsPerMPE
	}
	g := NewGather(&lm, n, ev.cons.Params, ev.cons.PacketWidth)
	st := &sizeStats{
		mcas:    len(lm.MCAs),
		mpeSpan: (len(lm.MCAs) + cfg.MCAsPerMPE - 1) / cfg.MCAsPerMPE,
		factors: g.Factors,
		step:    make([]stepCost, ev.cons.Steps),
	}
	st.tally.Reset(len(g.Factors))
	var scratch GatherScratch
	for t := 0; t < ev.cons.Steps; t++ {
		v := g.Visit(ev.in[li][t], ev.cons.EventDriven, &scratch, &st.tally)
		st.tally.Spikes += int(ev.spikes[li][t])
		st.step[t] = stepCost{delivered: int32(v.Delivered), maxMux: int32(v.MaxMux)}
	}
	return st, nil
}

// positions realizes a candidate's layer positions into pos (the mPE
// cursor walk of mapLayers, without building any MCA).
func (ev *evaluator) positions(c candidate, pos []layerPos) ([]layerPos, int) {
	perNC := ev.cons.Hierarchy.MPEsPerNC
	pos = grow(pos, len(ev.net.Layers))
	cursor := 0
	for li := range pos {
		if c.align[li] && cursor%perNC != 0 {
			cursor += perNC - cursor%perNC
		}
		span := ev.stats[li][c.size[li]].mpeSpan
		pos[li] = layerPos{
			mpeFirst: cursor, mpeSpan: span,
			ncFirst: cursor / perNC, ncLast: (cursor + span - 1) / perNC,
		}
		cursor += span
	}
	return pos, cursor
}

// crossNC reports whether layer li receives its inputs over the global bus
// at the candidate positions (see transportOf).
func (ev *evaluator) crossNC(li int, pos []layerPos) bool {
	var prev layerPos
	if li > 0 {
		prev = pos[li-1]
	}
	return transportOf(li, ev.net.Layers[li], prev, pos[li]) == Bus
}

// layerEnergy prices layer li's probe tally at candidate size szIdx, with
// the bus words when its input crosses NeuroCells.
func (ev *evaluator) layerEnergy(li, szIdx int, cross bool) perf.RESPARCEnergy {
	ss := ev.stats[li][szIdx]
	t := ss.tally
	if cross {
		t.BusChecked, t.BusSent = ev.busTotalSum[li], ev.busSentSum[li]
	}
	return cost.Energy(ev.cons.Params, ev.sramAccess, li == 0, ss.factors, &t)
}

// layerStep is the duration of one (layer, timestep) stage of a candidate
// by the shared stage-duration formula.
func (ev *evaluator) layerStep(li, t int, szIdx int, cross bool, pos layerPos) cost.Stage {
	sc := &ev.stats[li][szIdx].step[t]
	busWords := 0
	if cross {
		busWords = int(ev.busSent[li][t])
	}
	ncs := pos.ncLast - pos.ncFirst + 1
	ph := cost.StagePhases(ev.cons.Params, cost.Activity{
		NCs: ncs, MPEs: pos.mpeSpan, Switches: ev.cons.Hierarchy.switches(ncs),
		BusWords: busWords, Delivered: int(sc.delivered), MaxMux: int(sc.maxMux), Spikes: int(ev.spikes[li][t]),
	})
	st := ph.Stage()
	st.Words = ev.words[li][t]
	return st
}

// evaluate prices a full candidate. The Objective field is left zero — it is
// relative to a baseline the caller supplies to objective().
func (ev *evaluator) evaluate(c candidate) (CostBreakdown, error) {
	sc, _ := ev.scratch.Get().(*evalScratch)
	if sc == nil {
		sc = new(evalScratch)
	}
	defer ev.scratch.Put(sc)
	L := len(ev.net.Layers)
	pos, cursor := ev.positions(c, sc.pos)
	sc.pos = pos

	spans := grow(sc.spans, L)
	sc.spans = spans
	for li := range spans {
		spans[li] = pos[li].mpeSpan
	}
	if err := cost.CheckCapacity(spans, c.cuts, ev.cons.MaxMPEsPerChip); err != nil {
		return CostBreakdown{}, fmt.Errorf("mapping: %w", err)
	}

	cross := grow(sc.cross, L)
	sc.cross = cross
	for li := 0; li < L; li++ {
		cross[li] = ev.crossNC(li, pos)
	}

	// Chip energy: each layer's probe tally priced once and reduced in
	// layer order, as the chip accountant reports it.
	layerE := grow(sc.layerE, L)
	sc.layerE = layerE
	for li := range layerE {
		layerE[li] = ev.layerEnergy(li, c.size[li], cross[li])
	}
	energyJ := perf.SumRESPARC(layerE).Total()

	steps := ev.cons.Steps
	grid := grow(sc.grid, steps*L)
	rows := grow(sc.rows, steps)
	sc.grid, sc.rows = grid, rows
	for t := range rows {
		rows[t] = grid[t*L : (t+1)*L : (t+1)*L]
		for li := 0; li < L; li++ {
			rows[t][li] = ev.layerStep(li, t, c.size[li], cross[li], pos[li])
		}
	}
	// The multi-chip model the simulator reads off the same grid: each
	// cut's boundary raster crosses its hop as zero-checked flits, and the
	// chips and hops run as one pipeline.
	sh := &sc.shards
	sh.Run(rows, ev.inWords, c.cuts, ev.cons.Link, true)
	linkFlits := 0
	linkE := 0.0
	for _, h := range sh.Hops {
		linkFlits += h.FlitsSent
		linkE += h.EnergyJ
	}

	perNC := ev.cons.Hierarchy.MPEsPerNC
	return CostBreakdown{
		EnergyJ:     energyJ + linkE,
		LatencyS:    float64(sh.Makespan) * ev.cons.Params.NCCycle(),
		LinkFlits:   linkFlits,
		LinkEnergyJ: linkE,
		MPEs:        cursor,
		NCs:         (cursor + perNC - 1) / perNC,
	}, nil
}

// objective blends a cost against the baseline under the constraint weights.
func (ev *evaluator) objective(c, base CostBreakdown) float64 {
	return objectiveOf(c, base, ev.cons.Weights)
}

// objectiveOf is the weighted normalized objective: each term is the
// candidate's value relative to the baseline's.
func objectiveOf(c, base CostBreakdown, w Weights) float64 {
	obj := 0.0
	if base.EnergyJ > 0 {
		obj += w.Energy * c.EnergyJ / base.EnergyJ
		obj += w.Traffic * c.LinkEnergyJ / base.EnergyJ
	}
	if base.LatencyS > 0 {
		obj += w.Latency * c.LatencyS / base.LatencyS
	}
	return obj
}
