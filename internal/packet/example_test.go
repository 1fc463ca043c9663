package packet_test

import (
	"fmt"

	"resparc/internal/packet"
)

// A packet addressed in the Fig 6 format (SW_ID | mPE_ID | MCA_ID), and
// the zero-check that suppresses insignificant spike packets (§3.2).
func ExampleNewPacket() {
	dst := packet.Address{SW: 3, MPE: 7, MCA: 1}
	p := packet.NewPacket(dst, 64, 0b1010, 8)
	fmt.Println(p.Dst, "zero:", p.IsZero(), "spikes:", p.Spikes())

	silent := packet.NewPacket(dst, 0, 0, 8)
	fmt.Println("silent packet suppressed:", silent.IsZero())
	// Output:
	// sw3.mpe7.mca1 zero: false spikes: [65 67]
	// silent packet suppressed: true
}
