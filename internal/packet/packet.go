// Package packet defines the spike-packet and address formats moved through
// RESPARC's programmable switch network and global IO bus (paper Fig 6), and
// the zero-check logic of §3.2 that suppresses transfers of insignificant
// (all-zero) spike packets — the architectural hook for SNN event-drivenness.
//
// Address formats (Fig 6):
//
//	input address (iAddress):  SW_ID | mPE_ID | MCA_ID
//	output address (oAddress): mPE_ID | MCA_ID   (switch -> mPE)
//	                           MCA_ID            (switch -> switch)
package packet

import "fmt"

// Address identifies a destination MCA input port within a NeuroCell. Each
// level is an 8-bit field of the packed 24-bit wire address, ample for the
// 4x4 NeuroCell with 9 switches and 4 MCAs per mPE (neurocell.NewSwitchNet
// rejects cells whose ids would not fit).
type Address struct {
	SW  uint8 // programmable switch id
	MPE uint8 // mPE id within the NeuroCell
	MCA uint8 // MCA id within the mPE
}

func (a Address) String() string {
	return fmt.Sprintf("sw%d.mpe%d.mca%d", a.SW, a.MPE, a.MCA)
}

// Width is the spike-packet payload width in bits. The architecture is
// 64-bit (Fig 8); event-driven studies also sweep narrower packets (Fig 13's
// run-length discussion).
const Width = 64

// Packet is one spike packet in flight: a payload of Width spike bits plus
// the target address and the index of the first neuron the payload covers.
type Packet struct {
	Dst    Address
	Offset int    // index of bit 0 within the target MCA's input rows
	Bits   uint64 // spike payload, LSB = Offset
	Valid  int    // number of meaningful bits (1..Width)
}

// NewPacket builds a packet, validating the payload width.
func NewPacket(dst Address, offset int, bits uint64, valid int) Packet {
	if valid < 1 || valid > Width {
		panic(fmt.Sprintf("packet: valid bits %d out of [1,%d]", valid, Width))
	}
	if offset < 0 {
		panic(fmt.Sprintf("packet: negative offset %d", offset))
	}
	if valid < Width {
		bits &= (1 << uint(valid)) - 1
	}
	return Packet{Dst: dst, Offset: offset, Bits: bits, Valid: valid}
}

// IsZero implements the zero-check logic: a packet whose valid bits are all
// zero carries no spikes and its transfer can be suppressed.
func (p Packet) IsZero() bool { return p.Bits == 0 }

// Spikes returns the indices (Offset-relative to the MCA rows) of the set
// bits.
func (p Packet) Spikes() []int {
	var out []int
	b := p.Bits
	for i := 0; i < p.Valid; i++ {
		if b&1 != 0 {
			out = append(out, p.Offset+i)
		}
		b >>= 1
	}
	return out
}

func (p Packet) String() string {
	return fmt.Sprintf("pkt{%v +%d %0*b}", p.Dst, p.Offset, p.Valid, p.Bits)
}
