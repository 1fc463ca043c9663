// Package packet records the spike-packet and address formats moved through
// RESPARC's programmable switch network and global IO bus (paper Fig 6),
// whose zero-check (§3.2) suppresses transfers of insignificant (all-zero)
// spike packets — the architectural hook for SNN event-drivenness. The
// simulators read each packet straight off its producer layer's spike words.
//
// Address formats (Fig 6):
//
//	input address (iAddress):  SW_ID | mPE_ID | MCA_ID
//	output address (oAddress): mPE_ID | MCA_ID   (switch -> mPE)
//	                           MCA_ID            (switch -> switch)
package packet

// Width is the spike-packet payload width in bits. The architecture is
// 64-bit (Fig 8); event-driven studies also sweep narrower packets (Fig 13's
// run-length discussion).
const Width = 64
