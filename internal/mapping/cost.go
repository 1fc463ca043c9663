package mapping

import (
	"fmt"
	"math/bits"
	"sync"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
	"resparc/internal/event"
	"resparc/internal/packet"
	"resparc/internal/parallel"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// This file is the mapper's cost model: a surrogate of the architecture
// simulator (internal/core's transaction-level accounting and its pipelined
// event engine, plus internal/shard's link model) that prices a candidate
// placement — per-layer MCA sizes, NeuroCell alignment, shard cuts — without
// building a chip. It replays the same closed forms over a probe input's
// spike rasters: rasters depend only on (input, encoder), never on the
// mapping, so they are captured once and every candidate is a cheap walk
// over cached per-(layer, size) packing statistics plus one small
// discrete-event pipeline simulation. Predictions are untouched by mapping,
// so the mapper only ever trades modeled energy/latency/traffic.

// LinkCost models one chip-to-chip hop for the mapper's traffic term. It
// mirrors shard.LinkParams field for field (shard sits above core and so
// cannot be imported from here); DefaultLinkCost and shard.DefaultLinkParams
// are kept in lockstep by a test in internal/shard.
type LinkCost struct {
	// FlitWidth is the flit payload in spike bits.
	FlitWidth int
	// FlitEnergy is the joules to move one surviving flit across the hop.
	FlitEnergy float64
	// ZeroCheck is the joules to zero-check one flit (paid for every flit).
	ZeroCheck float64
	// FlitsPerCycle is the hop's width in flits per NeuroCell cycle.
	FlitsPerCycle int
	// SyncCycles is the per-timestep handshake overhead of the hop.
	SyncCycles int
	// RecvBuf bounds the receiving pad's raster buffer (in timesteps).
	RecvBuf int
}

// DefaultLinkCost derives the hop model from the chip's energy parameters —
// the same derivation as shard.DefaultLinkParams.
func DefaultLinkCost(p energy.Params) LinkCost {
	return LinkCost{
		FlitWidth:     packet.Width,
		FlitEnergy:    6 * p.BusWord,
		ZeroCheck:     p.ZeroCheck,
		FlitsPerCycle: 4,
		SyncCycles:    2,
		RecvBuf:       2,
	}
}

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
	// Link models each chip-to-chip hop (zero value selects DefaultLinkCost
	// of Params).
	Link LinkCost
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
		PacketWidth: packet.Width,
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
	if (c.Link == LinkCost{}) {
		c.Link = DefaultLinkCost(c.Params)
	}
	if c.Link.FlitWidth < 1 {
		return fmt.Errorf("mapping: link flit width %d", c.Link.FlitWidth)
	}
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

// stepCost is one (layer, size) pairing's position-independent activity on
// one probe timestep, mirroring the core observer's per-step accounting.
type stepCost struct {
	// words is the deduped per-mPE source-word count (each pays a
	// zero-check); delivered is the occupied subset (each pays the switch
	// hop and buffer accesses).
	words, delivered int32
	// active MCAs, spiking rows driven, neuron integrations, and the
	// time-multiplexing depth reached.
	active, rows, integrations, maxMux int32
	// crossbarE is the summed crossbar conduction energy (rows x the
	// per-MCA factor the observer uses).
	crossbarE float64
}

// sizeStats caches everything position-independent about mapping one layer
// onto one candidate MCA size: the packing's footprint and its per-probe-step
// activity. Layers always start on a fresh mPE, so none of this depends on
// where the layer lands.
type sizeStats struct {
	mcas, mpeSpan int
	step          []stepCost
}

// layerPos is a candidate's realized position of one layer.
type layerPos struct {
	mpeFirst, mpeSpan int
	ncFirst, ncLast   int
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
	// busSent/busTotal: packet words of in[li][t] surviving/total at the
	// chip packet width. spikes: out[li][t] popcount. flitSent/flitTotal:
	// link flits of out[li][t] at the hop flit width.
	busSent, busTotal   [][]int32
	spikes              [][]int32
	flitSent, flitTotal [][]int32
	// stats[li][szIdx] is the cached packing of layer li at Sizes[szIdx].
	stats [][]*sizeStats
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
	ev := &evaluator{net: net, cons: cons}

	// The SRAM is sized exactly as core.New sizes it, so the bus term prices
	// the same accesses.
	maxBits := net.Input.Size()
	for _, l := range net.Layers {
		if n := l.OutSize(); n > maxBits {
			maxBits = n
		}
	}
	bytes := maxBits / 8
	if bytes < 1024 {
		bytes = 1024
	}
	ev.sramAccess = energy.NewSRAM(bytes).AccessEnergy()

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
	fw := cons.Link.FlitWidth
	ev.busSent = make([][]int32, L)
	ev.busTotal = make([][]int32, L)
	ev.spikes = make([][]int32, L)
	ev.flitSent = make([][]int32, L)
	ev.flitTotal = make([][]int32, L)
	for li := 0; li < L; li++ {
		ev.busSent[li] = make([]int32, cons.Steps)
		ev.busTotal[li] = make([]int32, cons.Steps)
		ev.spikes[li] = make([]int32, cons.Steps)
		ev.flitSent[li] = make([]int32, cons.Steps)
		ev.flitTotal[li] = make([]int32, cons.Steps)
		for t := 0; t < cons.Steps; t++ {
			zero, total := ev.in[li][t].ZeroPackets(w)
			sent := total - zero
			if !cons.EventDriven {
				sent = total
			}
			ev.busSent[li][t] = int32(sent)
			ev.busTotal[li][t] = int32(total)
			ev.spikes[li][t] = int32(ev.out[li][t].Count())
			fzero, ftotal := ev.out[li][t].ZeroPackets(fw)
			ev.flitSent[li][t] = int32(ftotal - fzero)
			ev.flitTotal[li][t] = int32(ftotal)
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

// buildStats packs layer li at Sizes[szIdx] (position-free) and replays the
// probe rasters through the packing, mirroring core's accountant: each MCA's
// driven rows are popcounts of the spike storage words under per-MCA
// (word, mask) pairs, packet occupancy is read off the spike words, and
// per-mPE word lists are deduped in first-encounter order — the same
// structure core's layer plans cache.
func (ev *evaluator) buildStats(li, szIdx int) (*sizeStats, error) {
	cfg := ev.cons.Hierarchy
	n := ev.cons.Sizes[szIdx]
	l := ev.net.Layers[li]
	lm, err := layerMappingFor(li, l, cfg, n)
	if err != nil {
		return nil, err
	}
	p := ev.cons.Params
	w := ev.cons.PacketWidth
	ed := ev.cons.EventDriven

	insz := l.InSize()
	nwords := (insz + w - 1) / w
	gOff := make([]int32, len(lm.MCAs)+1)
	var gWord []int32
	var gMask []uint64
	factorXbar := make([]float64, len(lm.MCAs))
	outs := make([]int32, len(lm.MCAs))
	groupOf := make([]int32, len(lm.MCAs))
	type run struct{ mcaLo, mcaHi, wordLo, wordHi int32 }
	var runs []run
	var words []int32
	curMPE := -1
	mcaLo, wordLo := int32(0), int32(0)
	seen := map[int]bool{}
	for ai := range lm.MCAs {
		mca := &lm.MCAs[ai]
		relMPE := ai / cfg.MCAsPerMPE
		if relMPE != curMPE {
			if ai > 0 {
				runs = append(runs, run{mcaLo, int32(ai), wordLo, int32(len(words))})
				mcaLo, wordLo = int32(ai), int32(len(words))
				seen = map[int]bool{}
			}
			curMPE = relMPE
		}
		usedPerRow := 0.0
		if len(mca.Inputs) > 0 {
			usedPerRow = float64(mca.Taps) / float64(len(mca.Inputs))
		}
		idlePerRow := float64(n) - usedPerRow
		if p.GateIdleColumns {
			idlePerRow = 0
		}
		factorXbar[ai] = usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac
		outs[ai] = int32(len(mca.Outputs))
		groupOf[ai] = int32(mca.Group)
		lastWord := -1
		for _, in := range mca.Inputs {
			sw, bit := in>>6, uint64(1)<<(in&63)
			if g := len(gWord) - 1; g >= int(gOff[ai]) && gWord[g] == sw && gMask[g]&bit == 0 {
				gMask[g] |= bit
			} else {
				gWord = append(gWord, sw)
				gMask = append(gMask, bit)
			}
			word := int(in) / w
			if word != lastWord {
				lastWord = word
				if !seen[word] {
					seen[word] = true
					words = append(words, int32(word))
				}
			}
		}
		gOff[ai+1] = int32(len(gWord))
	}
	if len(lm.MCAs) > 0 {
		runs = append(runs, run{mcaLo, int32(len(lm.MCAs)), wordLo, int32(len(words))})
	}

	st := &sizeStats{
		mcas:    len(lm.MCAs),
		mpeSpan: (len(lm.MCAs) + cfg.MCAsPerMPE - 1) / cfg.MCAsPerMPE,
		step:    make([]stepCost, ev.cons.Steps),
	}
	occ := make([]bool, nwords)
	ga := make([]int32, lm.Groups)
	for t := 0; t < ev.cons.Steps; t++ {
		v := ev.in[li][t]
		spikeWords := v.Words()
		for k := range occ {
			lo := k * w
			occ[k] = v.LoadBits(lo, min(w, insz-lo)) != 0
		}
		sc := &st.step[t]
		for i := range ga {
			ga[i] = 0
		}
		for _, r := range runs {
			for mi := r.mcaLo; mi < r.mcaHi; mi++ {
				var rr int32
				gm := gMask[gOff[mi]:gOff[mi+1]]
				for k, sw := range gWord[gOff[mi]:gOff[mi+1]] {
					rr += int32(bits.OnesCount64(spikeWords[sw] & gm[k]))
				}
				if rr == 0 && ed {
					continue
				}
				sc.active++
				sc.rows += rr
				sc.crossbarE += float64(rr) * factorXbar[mi]
				sc.integrations += outs[mi]
				if ga[groupOf[mi]]++; ga[groupOf[mi]] > sc.maxMux {
					sc.maxMux = ga[groupOf[mi]]
				}
			}
			for wi := r.wordLo; wi < r.wordHi; wi++ {
				sc.words++
				if !ed || occ[words[wi]] {
					sc.delivered++
				}
			}
		}
	}
	return st, nil
}

// positions realizes a candidate's layer positions (the mPE cursor walk of
// mapLayers, without building any MCA).
func (ev *evaluator) positions(c candidate) ([]layerPos, int) {
	perNC := ev.cons.Hierarchy.MPEsPerNC
	pos := make([]layerPos, len(ev.net.Layers))
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

// crossNC mirrors Mapping.TransportOf over candidate positions.
func (ev *evaluator) crossNC(li int, pos []layerPos) bool {
	if li == 0 {
		return true
	}
	l := ev.net.Layers[li]
	switch l.Kind {
	case snn.PoolLayer:
		return false
	case snn.ConvLayer:
		if l.Geom.K <= l.Geom.Stride {
			return false
		}
	}
	cur, prev := pos[li], pos[li-1]
	if cur.ncFirst != cur.ncLast || prev.ncFirst != prev.ncLast {
		return true
	}
	return cur.ncFirst != prev.ncFirst
}

// layerStep prices one (layer, timestep) stage of a candidate: its energy
// and its sync/bus/local durations, with the core observer's closed forms.
func (ev *evaluator) layerStep(li, t int, szIdx int, cross bool, pos layerPos) (e float64, sync, bus, local int32) {
	p := ev.cons.Params
	sc := &ev.stats[li][szIdx].step[t]

	ncSpan := pos.ncLast - pos.ncFirst + 1
	sync = int32(p.SyncCyclesPerNC * ((ncSpan + 7) / 8))

	if cross {
		total := ev.busTotal[li][t]
		sent := ev.busSent[li][t]
		e += float64(total) * p.ZeroCheck
		per := 2.0
		if li == 0 {
			per = 1.0
		}
		e += float64(sent) * per * (p.BusWord + ev.sramAccess)
		bus = int32((int(sent) + p.BusWordsPerCycle - 1) / p.BusWordsPerCycle)
	}

	e += float64(sc.words) * p.ZeroCheck
	e += float64(sc.delivered) * (p.SwitchHop + 2*p.BufferAccess)
	e += float64(sc.active) * p.MPEControl
	e += sc.crossbarE
	e += float64(sc.integrations) * p.NeuronIntegrate

	sp := ev.spikes[li][t]
	e += float64(sp) * (p.NeuronSpike + p.SpikeHandling)

	per := 9
	if ev.cons.Hierarchy.MPEsPerNC != 16 {
		per = ev.cons.Hierarchy.MPEsPerNC/2 + 1
	}
	switches := ncSpan * per
	delivery := (int(sc.delivered) + switches - 1) / switches
	integrate := int(sc.maxMux) * p.IntegrateCycles
	drain := 0
	if sp > 0 || sc.maxMux > 0 {
		drain = (int(sp) + pos.mpeSpan - 1) / pos.mpeSpan
		if sp == 0 {
			drain++
		}
	}
	local = int32(delivery + integrate + drain)
	return e, sync, bus, local
}

// stage is one (timestep, layer) pipeline stage duration, the mapper-local
// twin of core.StageDur.
type stage struct{ sync, bus, local int32 }

// evaluate prices a full candidate. The Objective field is left zero — it is
// relative to a baseline the caller supplies to objective().
func (ev *evaluator) evaluate(c candidate) (CostBreakdown, error) {
	L := len(ev.net.Layers)
	pos, cursor := ev.positions(c)

	ranges := cutRanges(c.cuts, L)
	if limit := ev.cons.MaxMPEsPerChip; limit > 0 {
		for _, r := range ranges {
			mpes := 0
			for li := r[0]; li < r[1]; li++ {
				mpes += pos[li].mpeSpan
			}
			if mpes > limit {
				return CostBreakdown{}, fmt.Errorf("mapping: layers [%d,%d) need %d mPEs, chip capacity %d",
					r[0], r[1], mpes, limit)
			}
		}
	}

	cross := make([]bool, L)
	for li := 0; li < L; li++ {
		cross[li] = ev.crossNC(li, pos)
	}

	steps := ev.cons.Steps
	energyJ := 0.0
	stages := make([][]stage, steps)
	for t := 0; t < steps; t++ {
		stages[t] = make([]stage, L)
		for li := 0; li < L; li++ {
			e, sync, bus, local := ev.layerStep(li, t, c.size[li], cross[li], pos[li])
			energyJ += e
			stages[t][li] = stage{sync, bus, local}
		}
	}

	// Inter-chip hops: each cut's boundary raster crosses as zero-checked
	// flits, with the shard link model's energy and occupancy.
	lp := ev.cons.Link
	fpc := lp.FlitsPerCycle
	if fpc < 1 {
		fpc = 1
	}
	linkFlits := 0
	linkE := 0.0
	hops := make([][]int64, len(c.cuts))
	for h, cut := range c.cuts {
		bl := cut - 1 // boundary layer: its output raster crosses the hop
		hops[h] = make([]int64, steps)
		for t := 0; t < steps; t++ {
			sent := int(ev.flitSent[bl][t])
			linkFlits += sent
			linkE += float64(ev.flitTotal[bl][t])*lp.ZeroCheck + float64(sent)*lp.FlitEnergy
			hops[h][t] = int64(lp.SyncCycles + (sent+fpc-1)/fpc)
		}
	}

	makespan := pipelineMakespan(stages, ranges, hops, lp.RecvBuf)
	perNC := ev.cons.Hierarchy.MPEsPerNC
	return CostBreakdown{
		EnergyJ:     energyJ + linkE,
		LatencyS:    float64(makespan) * ev.cons.Params.NCCycle(),
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

// cutRanges converts cut points to [lo, hi) layer ranges.
func cutRanges(cuts []int, layers int) [][2]int {
	out := make([][2]int, 0, len(cuts)+1)
	lo := 0
	for _, c := range cuts {
		out = append(out, [2]int{lo, c})
		lo = c
	}
	return append(out, [2]int{lo, layers})
}

// pipelineMakespan is the mapper's pipeline DES, mirroring the composition
// core.PipelineMakespan and shard's eventMakespan use: stage (chip s,
// timestep t, layer j) starts once (s, t-1, j) and (s, t, j-1) are done;
// each chip's bus phases serialize on that chip's global bus; each hop
// transfers rasters strictly in timestep order under a bounded receive
// buffer. stages is indexed [timestep][global layer]; ranges partitions the
// layers into chips; hops[h][t] is hop h's transfer occupancy for raster t.
func pipelineMakespan(stages [][]stage, ranges [][2]int, hops [][]int64, recvBuf int) int64 {
	T := len(stages)
	if T == 0 {
		return 0
	}
	S := len(ranges)
	if recvBuf < 1 {
		recvBuf = 1
	}

	var eng event.Engine
	buses := make([]event.Resource, S)
	need := make([][][]int8, S)
	for s := 0; s < S; s++ {
		L := ranges[s][1] - ranges[s][0]
		need[s] = make([][]int8, T)
		for t := 0; t < T; t++ {
			need[s][t] = make([]int8, L)
			for j := 0; j < L; j++ {
				if t > 0 {
					need[s][t][j]++
				}
				if j > 0 || s > 0 {
					need[s][t][j]++
				}
			}
		}
	}

	readyAt := make([][]int64, S-1)
	next := make([]int, S-1)
	busy := make([]bool, S-1)
	credits := make([]int, S-1)
	for h := range readyAt {
		readyAt[h] = make([]int64, T)
		for t := range readyAt[h] {
			readyAt[h][t] = -1
		}
		credits[h] = recvBuf
	}

	var launch func(s, t, j int)
	signal := func(s, t, j int) {
		if t >= T || j >= len(need[s][t]) {
			return
		}
		need[s][t][j]--
		if need[s][t][j] <= 0 {
			launch(s, t, j)
		}
	}
	var trySend func(h int)
	trySend = func(h int) {
		t := next[h]
		if t >= T || busy[h] || readyAt[h][t] < 0 || credits[h] == 0 {
			return
		}
		busy[h] = true
		credits[h]--
		eng.Schedule(eng.Now()+hops[h][t], int32(1<<20+h), func() {
			busy[h] = false
			next[h]++
			signal(h+1, t, 0)
			trySend(h)
		})
	}
	launch = func(s, t, j int) {
		d := stages[t][ranges[s][0]+j]
		busAt := eng.Now() + int64(d.sync)
		end := busAt + int64(d.local)
		if d.bus > 0 {
			start := buses[s].Acquire(busAt, int64(d.bus))
			end = start + int64(d.bus) + int64(d.local)
		}
		last := j == len(need[s][t])-1
		eng.Schedule(end, int32(s<<10+j), func() {
			if last && s < S-1 {
				readyAt[s][t] = eng.Now()
				trySend(s)
			}
			if j == 0 && s > 0 {
				credits[s-1]++
				trySend(s - 1)
			}
			signal(s, t, j+1)
			signal(s, t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0, 0) })
	return eng.Run()
}

// minimaxCuts cuts the per-layer mPE spans into n contiguous parts
// minimizing the maximum part sum, returning the cut points (part starts,
// exclusive 0) — the same DP internal/shard partitions with, so a greedy
// placement's cuts reproduce shard.New's partition exactly.
func minimaxCuts(spans []int, n int) []int {
	L := len(spans)
	if n > L {
		n = L
	}
	if n <= 1 {
		return nil
	}
	prefix := make([]int, L+1)
	for i, c := range spans {
		prefix[i+1] = prefix[i] + c
	}
	const inf = int(^uint(0) >> 1)
	dp := make([][]int, n+1)
	cut := make([][]int, n+1)
	for k := range dp {
		dp[k] = make([]int, L+1)
		cut[k] = make([]int, L+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= n; k++ {
		for i := k; i <= L; i++ {
			for j := k - 1; j < i; j++ {
				if dp[k-1][j] == inf {
					continue
				}
				v := dp[k-1][j]
				if s := prefix[i] - prefix[j]; s > v {
					v = s
				}
				if v < dp[k][i] {
					dp[k][i] = v
					cut[k][i] = j
				}
			}
		}
	}
	cuts := make([]int, 0, n-1)
	hi := L
	for k := n; k >= 2; k-- {
		hi = cut[k][hi]
		cuts = append(cuts, hi)
	}
	// Collected back to front; reverse into ascending order.
	for i, j := 0, len(cuts)-1; i < j; i, j = i+1, j-1 {
		cuts[i], cuts[j] = cuts[j], cuts[i]
	}
	return cuts
}
