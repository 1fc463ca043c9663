package cost

import "resparc/internal/energy"

// PacketWidth is the spike-packet payload width in bits: one 64-bit spike
// word (Fig 8). Spike packets move through RESPARC's programmable switch
// network and global IO bus (Fig 6), and their zero check (§3.2) suppresses
// the transfer of all-zero packets — the architectural hook for SNN
// event-drivenness. Event-driven studies also sweep narrower packets (Fig
// 13's run-length discussion); the chip-to-chip link always moves
// PacketWidth-bit flits.
//
// Address formats (Fig 6):
//
//	input address (iAddress):  SW_ID | mPE_ID | MCA_ID
//	output address (oAddress): mPE_ID | MCA_ID   (switch -> mPE)
//	                           MCA_ID            (switch -> switch)
const PacketWidth = 64

// Link models one chip-to-chip hop. A hop carries the boundary layer's
// spike raster once per timestep, sliced into PacketWidth-bit flits that
// are zero-checked at the sending pad exactly like on-chip packets (§3.2):
// an all-zero flit pays only the check, a surviving flit pays the
// serializer, the off-chip traversal and the deserializer.
type Link struct {
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
		FlitEnergy:    6 * p.BusWord,
		ZeroCheck:     p.ZeroCheck,
		FlitsPerCycle: 4,
		SyncCycles:    2,
		RecvBuf:       2,
	}
}

// OrDefault returns l, or DefaultLink of p when l is the zero value.
func (l Link) OrDefault(p energy.Params) Link {
	if l == (Link{}) {
		return DefaultLink(p)
	}
	return l
}

// LinkStats is inter-chip traffic: one raster's on one hop (Link.Raster),
// a hop's over a classification, or a sum of those.
type LinkStats struct {
	// FlitsSent and FlitsSuppressed count the flits that survive and fail
	// the zero check.
	FlitsSent, FlitsSuppressed int
	// Cycles is the transfers' occupancy of the hop: per raster, the
	// handshake plus the surviving flits at the hop's width.
	Cycles int
	// EnergyJ is the zero checks of every flit plus the transfer of the
	// surviving ones.
	EnergyJ float64
	// WaitCycles is the time rasters sat at the sender pad after being ready
	// — channel serialization plus receive-buffer backpressure. Only the
	// pipelined makespan models flow control; it is zero otherwise.
	WaitCycles int
}

// Add returns the sum of a and b.
func (a LinkStats) Add(b LinkStats) LinkStats {
	a.FlitsSent += b.FlitsSent
	a.FlitsSuppressed += b.FlitsSuppressed
	a.Cycles += b.Cycles
	a.EnergyJ += b.EnergyJ
	a.WaitCycles += b.WaitCycles
	return a
}

// Raster prices one timestep's boundary raster on the hop: nonzero of its
// total PacketWidth-bit flits hold a spike.
func (l Link) Raster(nonzero, total int) LinkStats {
	fpc := max(l.FlitsPerCycle, 1)
	return LinkStats{
		FlitsSent:       nonzero,
		FlitsSuppressed: total - nonzero,
		EnergyJ:         float64(total)*l.ZeroCheck + float64(nonzero)*l.FlitEnergy,
		Cycles:          l.SyncCycles + (nonzero+fpc-1)/fpc,
	}
}
