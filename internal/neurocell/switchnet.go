package neurocell

import "fmt"

// SwitchNet models the programmable-switch fabric of one NeuroCell at
// packet granularity (Fig 6): a (d-1)x(d-1) switch grid serving the d x d
// mPE array. Each switch connects to its four neighboring mPEs, and
// dedicated links join every pair of switches sharing a row or a column, so
// any two switches are at most two hops apart (one row hop plus one column
// hop) and mPEs attached to the same switch are one hop apart.
//
// Each switch forwards one packet per cycle through its decoder/arbitration
// logic; input-line buffers queue the rest (Fig 6's iData/iAddress
// buffers). The main simulators use the ideal bound ceil(packets/switches)
// per §3.1.2's "high throughput parallel transfer"; SwitchNet measures how
// close real traffic gets to that bound and is exposed through the
// contention ablation experiment.
type SwitchNet struct {
	dim   int // mPE grid dimension (4 for the Fig 8 NeuroCell)
	swDim int // switch grid dimension (dim-1)
}

// SwitchStats summarizes one traffic simulation.
type SwitchStats struct {
	Cycles     int   // cycles until every packet was delivered
	Delivered  int   // packets delivered
	Hops       int   // total switch-to-switch + switch-to-mPE hops
	MaxQueue   int   // deepest input queue observed
	WaitCycles int   // cycles heads spent blocked on full downstream FIFOs
	Forwards   []int // per-switch forward counts (load balance)
}

// Transfer is one spike-packet movement between two mPEs of the NeuroCell
// (local ids in [0, dim*dim)).
type Transfer struct {
	SrcMPE, DstMPE int
}

// maxDim is the largest cell whose mPE ids (dim*dim) and switch ids
// ((dim-1)^2) fit the 8-bit mPE_ID and SW_ID fields of the Fig 6 address.
const maxDim = 16

// NewSwitchNet builds the fabric for a d x d mPE NeuroCell (2 <= d <= 16).
func NewSwitchNet(dim int) (*SwitchNet, error) {
	if dim < 2 {
		return nil, fmt.Errorf("neurocell: switch net needs dim >= 2, got %d", dim)
	}
	if dim > maxDim {
		return nil, fmt.Errorf("neurocell: switch net dim %d exceeds %d: its %d mPE ids do not fit the 8-bit mPE_ID field of the Fig 6 address",
			dim, maxDim, dim*dim)
	}
	return &SwitchNet{dim: dim, swDim: dim - 1}, nil
}

// Switches returns the number of switches in the fabric. For the Fig 8
// NeuroCell (4x4 mPEs) this is 9, matching the published parameter table.
func (n *SwitchNet) Switches() int { return n.swDim * n.swDim }

// switchOf returns the primary switch an mPE attaches to: the grid corner
// switch closest to the array origin (mPE (x,y) -> switch (min(x,d-2),
// min(y,d-2))), so every switch serves its four neighboring mPEs.
func (n *SwitchNet) switchOf(mpe int) int {
	x, y := mpe%n.dim, mpe/n.dim
	sx, sy := x, y
	if sx > n.swDim-1 {
		sx = n.swDim - 1
	}
	if sy > n.swDim-1 {
		sy = n.swDim - 1
	}
	return sy*n.swDim + sx
}

// route returns the next switch on the path from s to dst: first align the
// row over the dedicated column link, then the column over the row link —
// at most two hops thanks to the full row/column connectivity.
func (n *SwitchNet) route(s, dst int) int {
	sx, sy := s%n.swDim, s/n.swDim
	dx, dy := dst%n.swDim, dst/n.swDim
	if sy != dy {
		return dy*n.swDim + sx // dedicated column link: any row in one hop
	}
	if sx != dx {
		return sy*n.swDim + dx // dedicated row link: any column in one hop
	}
	return s
}

// IdealCycles is the contention-free bound the architecture model uses:
// every switch forwards one packet per cycle in parallel.
func (n *SwitchNet) IdealCycles(packets int) int {
	if packets == 0 {
		return 0
	}
	return (packets + n.Switches() - 1) / n.Switches()
}
