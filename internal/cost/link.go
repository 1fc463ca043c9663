package cost

import (
	"fmt"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
)

// Link models one chip-to-chip hop. A hop carries the boundary layer's
// spike raster once per timestep, sliced into FlitWidth-bit flits that are
// zero-checked at the sending pad exactly like on-chip packets (§3.2): an
// all-zero flit pays only the check, a surviving flit pays the serializer,
// the off-chip traversal and the deserializer.
type Link struct {
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
	// RecvBuf bounds the receiving pad's raster buffer (in timesteps) in the
	// pipelined makespan: the hop holds at most RecvBuf delivered but
	// unconsumed rasters, so a slow downstream chip backpressures the sender
	// (<= 0 selects one slot). The serial sum ignores it.
	RecvBuf int
}

// DefaultLink derives a hop model from the chip's energy parameters: an
// off-chip flit costs several on-chip bus-word transfers (pad drivers and
// serdes dominate), the zero-check reuses the on-chip packet logic, and the
// hop moves four flits per cycle — a 128-bit parallel chip-to-chip
// interface, a quarter of the 512-bit on-chip global bus — with a two-cycle
// handshake per timestep.
func DefaultLink(p energy.Params) Link {
	return Link{
		FlitWidth:     64, // one spike packet (packet.Width)
		FlitEnergy:    6 * p.BusWord,
		ZeroCheck:     p.ZeroCheck,
		FlitsPerCycle: 4,
		SyncCycles:    2,
		RecvBuf:       2,
	}
}

// OrDefault returns l, or DefaultLink of p when l is the zero value, and
// rejects a flit width below one bit.
func (l Link) OrDefault(p energy.Params) (Link, error) {
	if l == (Link{}) {
		l = DefaultLink(p)
	}
	if l.FlitWidth < 1 {
		return Link{}, fmt.Errorf("link flit width %d", l.FlitWidth)
	}
	return l, nil
}

// Hop is the price of one timestep's raster crossing a hop.
type Hop struct {
	// Sent and Suppressed count the flits that survive and fail the zero
	// check.
	Sent, Suppressed int
	// EnergyJ is the zero checks of every flit plus the transfer of the
	// surviving ones.
	EnergyJ float64
	// Cycles is the transfer's occupancy of the hop: the handshake plus the
	// surviving flits at the hop's width.
	Cycles int
}

// Raster prices one timestep's boundary raster on the hop.
func (l Link) Raster(b *bitvec.Bits) Hop {
	zero, total := b.ZeroPackets(l.FlitWidth)
	sent := total - zero
	fpc := max(l.FlitsPerCycle, 1)
	return Hop{
		Sent:       sent,
		Suppressed: zero,
		EnergyJ:    float64(total)*l.ZeroCheck + float64(sent)*l.FlitEnergy,
		Cycles:     l.SyncCycles + (sent+fpc-1)/fpc,
	}
}
