package core

import (
	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/mapping"
)

// This file is the chip's accountant: the transaction-level model of §4.2
// tallied once per (timestep, layer) visit and priced once per image. Each
// visit adds integer event counts to its layer's cost.Tally through the
// chip-cached mapping.Gather of the layer — the same (word, mask) row
// gather, and the same Visit, the mapper's cost model tallies its probe
// with — so a visit costs one popcount per (word, mask) pair of each
// distinct row list however dense the spikes are. Packet-word occupancy is
// read straight off the spike words at the chip packet width.
//
// Energies are priced from the tallies by cost.Energy when the image is
// reported: each per-event energy times its count, per layer, then reduced
// in layer order. No float is added per event, so no summation order has to
// be kept across visits; a test-only step-major oracle (oracle_test.go)
// tallies the same counts its own way and must price to the same energies
// bit for bit.
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

// layerPlan is the chip-cached static structure of one layer's mapping:
// the row gather the mapper's cost model shares (mapping.Gather) plus the
// layer's placement terms of the stage-duration formula.
type layerPlan struct {
	g     mapping.Gather
	cross bool // the layer's input crosses NeuroCells on the global bus
	// NeuroCell, mPE and switch spans of the layer.
	ncs, mpes, switches int
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
	plans := make([]layerPlan, len(m.Layers))
	for li := range m.Layers {
		lm := &m.Layers[li]
		plans[li] = layerPlan{
			g:        mapping.NewGather(lm, m.LayerSize(li), opt.Params, opt.PacketWidth),
			cross:    m.CrossNC(li),
			ncs:      lm.NCLast - lm.NCFirst + 1,
			mpes:     lm.MPELast - lm.MPEFirst + 1,
			switches: lm.Switches(m.Cfg),
		}
	}
	return plans
}

// stageRow returns the (zeroed-by-overwrite) duration row for a step,
// growing the grid as steps are observed.
func (o *observer) stageRow(step int) []cost.Stage {
	for len(o.stages) <= step {
		o.stages = append(o.stages, make([]cost.Stage, len(o.tally)))
	}
	o.nsteps = max(o.nsteps, step+1)
	return o.stages[step]
}

// ObserveStep implements snn.Observer: it tallies one timestep's events.
// layers holds every layer's output spike vector; input is the spike vector
// feeding the first layer. Per layer, one gather visit tallies the MCA
// activity and packet deliveries, the bus words and output spikes are
// added, and the stage's duration is recorded with the nonzero 64-bit words
// of the layer's input (Stage.Words).
func (o *observer) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c := o.chip
	p := c.Opt.Params
	ed := c.Opt.EventDriven
	// At the architecture's packet width with gating on, a visit's sent
	// packets are exactly the input's nonzero words.
	sentIsWords := ed && c.Opt.PacketWidth == cost.PacketWidth
	tracing := c.Opt.Trace != nil
	cur := input
	row := o.stageRow(step)
	for j := range o.tally {
		pl := &o.plans[j]
		t := &o.tally[j]
		if tracing {
			o.prev.CopyFrom(t)
		}
		v := pl.g.Visit(cur, ed, &o.scratch, t)
		words := v.Sent
		if !sentIsWords {
			zero, total := cur.ZeroPackets(cost.PacketWidth)
			words = total - zero
		}

		// ---- Global bus & SRAM (§3.1.3) ----
		busWords := 0
		if pl.cross {
			t.BusChecked += pl.g.NWords
			t.BusSent += v.Sent
			busWords = v.Sent
		}

		// ---- Fire ----
		out := layers[j]
		spikes := out.Count()
		t.Spikes += spikes

		ph := cost.StagePhases(p, cost.Activity{
			NCs: pl.ncs, MPEs: pl.mpes, Switches: pl.switches, BusWords: busWords,
			Delivered: v.Delivered, MaxMux: v.MaxMux, Spikes: spikes,
		})
		o.breakdown.add(ph)
		o.busCycles += ph.Bus
		row[j] = ph.Stage()
		row[j].Words = int32(words)
		stage := ph.Total()
		o.layerCycles[j] += stage
		o.cycles += stage

		if tracing {
			o.writeTrace(step, j, cur, out)
		}
		cur = out
	}
}
