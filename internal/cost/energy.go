package cost

import (
	"resparc/internal/energy"
	"resparc/internal/perf"
)

// Tally is the integer activity of one layer over any span of its
// (timestep, layer) visits: the event counts §4.2's energy model multiplies
// per-event energies by. The chip accountant keeps one per layer per image,
// the trace prices one visit's difference of two, and the mapper's cost
// model sums one per candidate layer over the probe, so all three price
// the same counts through Energy.
type Tally struct {
	// BusChecked is the packet words zero-checked before the global bus and
	// BusSent those broadcast on it (both zero unless the layer's input
	// crosses NeuroCells).
	BusChecked, BusSent int
	// Checked is the packet words zero-checked at the target mPEs' buffers
	// (one per source word per mPE run) and Delivered those that survived.
	Checked, Delivered int
	// Active counts MCA activations, Integrations their neuron column
	// integrations, and Ext the activations of MCAs outside their neuron
	// group owner's mPE (each ships its partial sums to the owner; counted,
	// not priced).
	Active, Integrations, Ext int
	// Spikes is the layer's output spikes.
	Spikes int
	// Rows[c] is the rows driven on the MCAs of crossbar-factor class c
	// (see Energy).
	Rows []int
}

// Reset zeroes t for a layer with the given number of crossbar-factor
// classes, reusing Rows' storage.
func (t *Tally) Reset(classes int) {
	rows := t.Rows
	if cap(rows) < classes {
		rows = make([]int, classes)
	}
	rows = rows[:classes]
	clear(rows)
	*t = Tally{Rows: rows}
}

// CopyFrom overwrites t with src, reusing Rows' storage.
func (t *Tally) CopyFrom(src *Tally) {
	rows := append(t.Rows[:0], src.Rows...)
	*t = *src
	t.Rows = rows
}

// Sub subtracts b from t count by count; both must have the same classes.
func (t *Tally) Sub(b *Tally) {
	t.BusChecked -= b.BusChecked
	t.BusSent -= b.BusSent
	t.Checked -= b.Checked
	t.Delivered -= b.Delivered
	t.Active -= b.Active
	t.Integrations -= b.Integrations
	t.Ext -= b.Ext
	t.Spikes -= b.Spikes
	for c, r := range b.Rows {
		t.Rows[c] -= r
	}
}

// RowsDriven is the rows driven over every class.
func (t *Tally) RowsDriven() int {
	n := 0
	for _, r := range t.Rows {
		n += r
	}
	return n
}

// Energy prices a layer's tally once: every per-event energy of p times its
// integer count. sramAccess is the input SRAM's access energy; first marks
// the network's first layer, whose input the host writes into the SRAM, so
// a broadcast word costs one bus transaction and SRAM access (the
// broadcast read) instead of two (the producer's write and the read).
// factors[c] is the crossbar energy per driven row of class c: every
// cross-point on a driven row conducts, so an MCA's row price depends only
// on its used and idle cells per row, and a layer's MCAs fall into a few
// classes of equal price.
func Energy(p energy.Params, sramAccess float64, first bool, factors []float64, t *Tally) perf.RESPARCEnergy {
	per := 2.0
	if first {
		per = 1
	}
	var e perf.RESPARCEnergy
	for c, r := range t.Rows {
		e.Crossbar += float64(r) * factors[c]
	}
	e.Neuron = float64(t.Integrations)*p.NeuronIntegrate + float64(t.Spikes)*p.NeuronSpike
	// Every spike is handled by the peripherals: oBUFF write, tBUFF target
	// lookup, packet assembly.
	e.Peripherals = float64(t.BusChecked+t.Checked)*p.ZeroCheck +
		float64(t.BusSent)*per*(p.BusWord+sramAccess) +
		float64(t.Delivered)*(p.SwitchHop+2*p.BufferAccess) +
		float64(t.Active)*p.MPEControl +
		float64(t.Spikes)*p.SpikeHandling
	return e
}
