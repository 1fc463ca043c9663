package core

import (
	"math/bits"

	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/mapping"
)

// This file is the chip's accountant: the transaction-level model of §4.2
// charged once per (timestep, layer) visit. Each MCA's driven-row count is
// gathered rather than scattered through the chip-cached mapping.Gather of
// its layer — the same (word, mask) row gather the mapper's cost model
// replays its probe through — so a visit costs one popcount per mapped
// (MCA, word) pair however dense the spikes are. Packet-word occupancy is
// read straight off the spike words at the chip packet width.
//
// Every visit's per-phase durations come from the shared stage-duration
// formula (cost.StagePhases) and are recorded in a cost.Stage grid, which
// Report reduces two ways:
//
//  1. Serially (the default, the paper's latency): Counts.Cycles is the sum
//     of every stage's sync, bus, delivery, integrate and drain cycles —
//     exactly Breakdown.Total().
//  2. Pipelined (sim.Options.EventEngine): Report.Pipeline replaces Cycles
//     with the makespan of a discrete-event simulation of the same grid
//     (Fig 7a, cost.Pipeline), where layer stages overlap across timesteps
//     and the shared global bus is a FIFO resource.
//
// Energies are float sums, and float addition is not associative, so the
// charges follow one fixed order: per mPE run, first the active MCAs'
// charges in allocation order, then the run's word charges in
// first-encounter order. A test-only copy of the original step-major loop
// (oracle_test.go) pins every energy and counter to that order bit for bit.

// layerPlan is the chip-cached static structure of one layer's mapping: the
// row gather the mapper's cost model shares (mapping.Gather) plus what only
// the accountant charges per MCA.
type layerPlan struct {
	g    mapping.Gather
	mcas []mcaPlan
}

// mcaPlan is one MCA's per-activation constants: the gather's, plus what
// only the accountant charges. The charge loop reads them from this one
// array.
type mcaPlan struct {
	mapping.GatherMCA
	integrateE float64 // neuron integration energy per activation
	ext        bool    // MCA lives outside its group owner's mPE
}

// groupOwners returns, per layer per neuron group, the mPE holding the
// group's first MCA — the group's owner, to which every other mPE serving
// the group transfers its partial sums.
func groupOwners(m *mapping.Mapping) [][]int32 {
	owners := make([][]int32, len(m.Layers))
	for li := range m.Layers {
		lm := &m.Layers[li]
		owner := make([]int32, lm.Groups)
		for i := range owner {
			owner[i] = -1
		}
		for ai := range lm.MCAs {
			if g := lm.MCAs[ai].Group; owner[g] < 0 {
				owner[g] = int32(lm.MCAs[ai].MPE)
			}
		}
		owners[li] = owner
	}
	return owners
}

// layerPlans returns the per-layer plans, building them on first use. They
// derive from the mapping's placements; Remapped drops them when those
// change in place.
func (c *Chip) layerPlans() []layerPlan {
	c.plansMu.Lock()
	defer c.plansMu.Unlock()
	if c.plans == nil {
		c.plans = buildPlans(c.Map, c.Opt)
	}
	return c.plans
}

// Remapped rebuilds what the chip derives from its mapping's placements —
// the group owners and the layer plans — after the mapping was changed in
// place (mapping.RemapFaulty moves MCAs to spare mPEs). The caller must keep
// classifications off the chip while the mapping changes and until
// Remapped returns.
func (c *Chip) Remapped() {
	c.plansMu.Lock()
	c.plans = nil
	c.plansMu.Unlock()
}

func buildPlans(m *mapping.Mapping, opt Options) []layerPlan {
	owners := groupOwners(m)
	plans := make([]layerPlan, len(m.Layers))
	for li := range m.Layers {
		lm := &m.Layers[li]
		pl := &plans[li]
		pl.g = mapping.NewGather(lm, m.LayerSize(li), opt.Params, opt.PacketWidth)
		pl.mcas = make([]mcaPlan, len(lm.MCAs))
		for ai := range lm.MCAs {
			mca := &lm.MCAs[ai]
			pl.mcas[ai] = mcaPlan{
				GatherMCA:  pl.g.MCAs[ai],
				integrateE: float64(len(mca.Outputs)) * opt.Params.NeuronIntegrate,
				ext:        int32(mca.MPE) != owners[li][mca.Group],
			}
		}
	}
	return plans
}

// stageRow returns the (zeroed-by-overwrite) duration row for a step,
// growing the grid as steps are observed.
func (o *observer) stageRow(step int) []cost.Stage {
	for len(o.stages) <= step {
		o.stages = append(o.stages, make([]cost.Stage, o.hi-o.lo))
	}
	o.nsteps = max(o.nsteps, step+1)
	return o.stages[step]
}

// ObserveStep implements snn.Observer: it charges one timestep's events.
// layers holds the spike vectors of the observed range only (local indices);
// input is the spike vector feeding the range's first layer. Per layer, the
// charges flow run by run in the fixed float order, each MCA's driven rows
// gathered from the input's storage words as it is charged.
func (o *observer) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c := o.chip
	p := c.Opt.Params
	w := c.Opt.PacketWidth
	ed := c.Opt.EventDriven
	cur := input
	row := o.stageRow(step)
	for j := 0; j < o.hi-o.lo; j++ {
		gi := o.lo + j
		lm := &c.Map.Layers[gi]
		pl := &o.plans[gi]
		le := &o.layerE[j]
		prevCnt := o.cnt
		prevE := *le

		// Packet-word occupancy, read off the spike words once per visit.
		g := &pl.g
		if cap(o.occ) < g.NWords {
			o.occ = make([]bool, g.NWords)
		}
		occ := o.occ[:g.NWords]
		sent := g.NWords
		if ed {
			sent = 0
			for k := range occ {
				lo := k * w
				occ[k] = cur.LoadBits(lo, min(w, cur.Len()-lo)) != 0
				if occ[k] {
					sent++
				}
			}
		}

		// ---- Global bus & SRAM (§3.1.3) ----
		busWords := 0
		if c.Map.CrossNC(gi) {
			total := g.NWords
			zero := total - sent
			le.Peripherals += float64(total) * p.ZeroCheck
			// Producer write to SRAM + broadcast read: two bus transactions
			// and two SRAM accesses per surviving word (layer 0 is loaded by
			// the host, so only the broadcast read applies).
			per := 2.0
			if gi == 0 {
				per = 1.0
			}
			le.Peripherals += float64(sent) * per * (p.BusWord + c.sram.AccessEnergy())
			o.cnt.BusWords += sent
			o.cnt.BusWordsSuppressed += zero
			busWords = sent
		}

		// ---- Switch network delivery + MCA activity ----
		// Spike packets are the width-bit aligned words of the producer
		// layer's spike vector, zero-checked at the sending switch (§3.2)
		// and delivered once per target mPE. Run by run: the active MCAs'
		// charges in allocation order, then the run's word charges in
		// first-encounter order.
		delivered := 0
		maxMux := int32(0)
		ga := o.groupScratch(j, lm.Groups)
		clear(ga)
		spikeWords := cur.Words()
		for ri := range g.Runs {
			run := &g.Runs[ri]
			for mi := run.MCALo; mi < run.MCAHi; mi++ {
				r := 0
				gw := g.Word[g.Off[mi]:g.Off[mi+1]]
				gm := g.Mask[g.Off[mi]:g.Off[mi+1]]
				for k, sw := range gw {
					r += bits.OnesCount64(spikeWords[sw] & gm[k])
				}
				if r == 0 && ed {
					continue
				}
				mp := &pl.mcas[mi]
				o.cnt.MCAActivations++
				o.cnt.RowsDriven += r
				le.Peripherals += p.MPEControl
				le.Crossbar += float64(r) * mp.FactorXbar
				// Neuron integration of this MCA's columns.
				o.cnt.Integrations += int(mp.Outs)
				le.Neuron += mp.integrateE
				if mp.ext {
					o.cnt.ExtTransfers++
				}
				if ga[mp.Group]++; ga[mp.Group] > maxMux {
					maxMux = ga[mp.Group]
				}
			}
			for wi := run.WordLo; wi < run.WordHi; wi++ {
				le.Peripherals += p.ZeroCheck
				if !ed || occ[g.Words[wi]] {
					delivered++
					le.Peripherals += p.SwitchHop + 2*p.BufferAccess
				} else {
					o.cnt.PacketsSuppressed++
				}
			}
		}
		o.cnt.PacketsDelivered += delivered

		// ---- Fire ----
		out := layers[j]
		spikes := out.Count()
		o.cnt.Spikes += spikes
		o.layerSpikes[j] += spikes
		le.Neuron += float64(spikes) * p.NeuronSpike
		// Every spike is handled by the peripherals: oBUFF write, tBUFF
		// target lookup, packet assembly.
		le.Peripherals += float64(spikes) * p.SpikeHandling

		ph := cost.StagePhases(p, cost.Activity{
			NCs: lm.NCLast - lm.NCFirst + 1, MPEs: lm.MPELast - lm.MPEFirst + 1,
			Switches: lm.Switches(c.Map.Cfg), BusWords: busWords,
			Delivered: delivered, MaxMux: int(maxMux), Spikes: spikes,
		})
		o.breakdown.add(ph)
		o.busCycles += ph.Bus
		row[j] = ph.Stage()
		stage := ph.Total()
		o.layerCycles[j] += stage
		o.cnt.Cycles += stage

		if c.Opt.Trace != nil {
			o.writeTrace(step, gi, cur, out, prevCnt, prevE)
		}
		cur = out
	}
}
