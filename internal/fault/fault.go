// Package fault defines deterministic, seeded fault campaigns for the
// memristive substrate: per-device stuck-at maps, lognormal conductance
// drift as a function of elapsed inferences, failed programming pulses, and
// whole-crossbar / whole-mPE kill switches.
//
// Real MCAs fail silently — fabrication defects pin devices to a rail,
// conductances drift between refresh cycles, and write pulses miss their
// target level (§2 of the paper cites these as the non-idealities that cap
// reliable crossbar size). A Campaign makes those failures reproducible:
// every fault is a pure function of (campaign seed, physical slot), never of
// evaluation order, so the same seed produces the same fault map and the
// same inference results — the same determinism contract as
// snn.PoissonEncoder.ForkSeed. Simulators consume campaigns through explicit
// hooks (xbar.Crossbar.SetFaults, mpe.MCASlot.SetDead, core.Chip.SetFaults)
// rather than ad-hoc rng calls.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"resparc/internal/device"
	"resparc/internal/quant"
)

// DeviceState is the health of one memristive device.
type DeviceState uint8

const (
	// DeviceOK devices program normally.
	DeviceOK DeviceState = iota
	// StuckLow devices are pinned at GMin (open defects, failed forming).
	StuckLow
	// StuckHigh devices are pinned at GMax (shorted cross-points).
	StuckHigh
)

func (s DeviceState) String() string {
	switch s {
	case DeviceOK:
		return "ok"
	case StuckLow:
		return "stuck-low"
	case StuckHigh:
		return "stuck-high"
	default:
		return fmt.Sprintf("DeviceState(%d)", uint8(s))
	}
}

// Plane selects a device column of the differential pair.
type Plane uint8

const (
	// Pos is the positive device plane (G+).
	Pos Plane = iota
	// Neg is the negative device plane (G-).
	Neg
)

// SlotID names one physical crossbar slot on the chip: the mPE index and
// the MCA slot within it. Faults attach to physical slots, not to logical
// MCA allocations — remapping moves an allocation to a different slot,
// which is exactly how it escapes a fault.
type SlotID struct {
	MPE  int
	Slot int
}

func (s SlotID) String() string { return fmt.Sprintf("mpe%d.slot%d", s.MPE, s.Slot) }

// StuckCell is one faulty device of a slot's crossbar.
type StuckCell struct {
	R, C  int
	Plane Plane
	State DeviceState // StuckLow or StuckHigh
}

// Campaign is one deterministic fault scenario. The zero value is the
// fault-free campaign; NewCampaign fills the technology defaults.
type Campaign struct {
	// Seed keys every fault draw. Same seed, same faults — everywhere.
	Seed int64
	// StuckFraction is the per-device probability of a stuck-at defect.
	StuckFraction float64
	// StuckHighShare is the fraction of stuck devices pinned at GMax
	// (the remainder sit at GMin). NewCampaign sets 0.5.
	StuckHighShare float64
	// FailedWriteProb is the probability that one programming pulse fails
	// to move its device (consumed by the xbar program-verify loop).
	FailedWriteProb float64
	// DriftSigma scales the lognormal conductance drift; the effective
	// sigma grows with elapsed inferences, see DriftSigmaAt.
	DriftSigma float64
	// DriftTau is the inference count over which drift accumulates one
	// DriftSigma decade (<= 0 selects 1e3).
	DriftTau float64
	// DeadMPEs lists whole-mPE kill switches (power gating failure, local
	// control unit dead): every slot of the mPE is unusable.
	DeadMPEs []int
	// DeadSlots lists whole-crossbar kill switches.
	DeadSlots []SlotID
}

// NewCampaign returns a campaign with the technology's fabrication defect
// rate, an even stuck-high/stuck-low split and a small failed-write rate.
func NewCampaign(seed int64, tech device.Technology) Campaign {
	return Campaign{
		Seed:            seed,
		StuckFraction:   tech.StuckFraction,
		StuckHighShare:  0.5,
		FailedWriteProb: 0.02,
	}
}

// MPEDead reports whether the whole mPE is killed.
func (c Campaign) MPEDead(mpe int) bool {
	for _, d := range c.DeadMPEs {
		if d == mpe {
			return true
		}
	}
	return false
}

// SlotDead reports whether the slot is killed, directly or via its mPE.
func (c Campaign) SlotDead(id SlotID) bool {
	if c.MPEDead(id.MPE) {
		return true
	}
	for _, d := range c.DeadSlots {
		if d == id {
			return true
		}
	}
	return false
}

// Independent sub-seed streams: each (purpose, slot) pair owns its own rng,
// so drawing from one never perturbs another — the property that makes the
// sparse StuckCells walk and the dense CellMap materialization agree.
const (
	streamStuck uint64 = 0x9e3779b97f4a7c15
	streamDrift uint64 = 0xbf58476d1ce4e5b9
	streamWrite uint64 = 0x94d049bb133111eb
)

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash used to
// derive independent per-slot seeds from the campaign seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c Campaign) slotSeed(stream uint64, id SlotID) int64 {
	h := splitmix64(uint64(c.Seed) ^ stream)
	h = splitmix64(h ^ uint64(id.MPE)<<20 ^ uint64(id.Slot))
	return int64(h)
}

func (c Campaign) slotRng(stream uint64, id SlotID) *rand.Rand {
	return rand.New(rand.NewSource(c.slotSeed(stream, id)))
}

// DriftRng returns the slot's deterministic drift stream.
func (c Campaign) DriftRng(id SlotID) *rand.Rand { return c.slotRng(streamDrift, id) }

// WriteRng returns the slot's deterministic pulse-failure stream for the
// program-verify loop.
func (c Campaign) WriteRng(id SlotID) *rand.Rand { return c.slotRng(streamWrite, id) }

// StuckCells returns the slot's stuck devices in a fixed canonical order
// (positive plane row-major, then negative plane row-major). It walks the
// device sequence with geometric skips, so the cost is proportional to the
// number of faults, not the array size — the property that lets a campaign
// cover the tens of thousands of crossbars of the largest Fig 10 mapping.
// Deterministic: depends only on (Seed, id, rows, cols, StuckFraction,
// StuckHighShare).
func (c Campaign) StuckCells(id SlotID, rows, cols int) []StuckCell {
	p := c.StuckFraction
	if p <= 0 || rows <= 0 || cols <= 0 {
		return nil
	}
	n := 2 * rows * cols // both device planes
	rng := c.slotRng(streamStuck, id)
	if p >= 1 {
		out := make([]StuckCell, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, c.stuckAt(i, rows, cols, rng))
		}
		return out
	}
	var out []StuckCell
	logq := math.Log1p(-p)
	for i := -1; ; {
		// Geometric gap: number of healthy devices skipped before the next
		// stuck one.
		gap := int(math.Log1p(-rng.Float64()) / logq)
		if gap < 0 { // overflow guard for U ~ 1
			break
		}
		i += 1 + gap
		if i >= n {
			break
		}
		out = append(out, c.stuckAt(i, rows, cols, rng))
	}
	return out
}

// stuckAt converts a flat device index into a StuckCell, drawing its rail.
func (c Campaign) stuckAt(i, rows, cols int, rng *rand.Rand) StuckCell {
	plane := Pos
	if i >= rows*cols {
		plane = Neg
		i -= rows * cols
	}
	state := StuckLow
	if rng.Float64() < c.StuckHighShare {
		state = StuckHigh
	}
	return StuckCell{R: i / cols, C: i % cols, Plane: plane, State: state}
}

// CellMap materializes the slot's full per-device fault map. Identical to
// scattering StuckCells into a fresh map; prefer StuckCells when only the
// faulty cells matter.
func (c Campaign) CellMap(id SlotID, rows, cols int) *CellMap {
	m := NewCellMap(rows, cols)
	for _, s := range c.StuckCells(id, rows, cols) {
		m.Set(s.R, s.C, s.Plane, s.State)
	}
	return m
}

// DriftSigmaAt returns the effective lognormal sigma after the given number
// of elapsed inferences: DriftSigma * log10(1 + inferences/DriftTau).
// Memristive conductance relaxes roughly linearly in log time, so the noise
// grows by one DriftSigma per decade of inferences past DriftTau.
func (c Campaign) DriftSigmaAt(inferences float64) float64 {
	if c.DriftSigma <= 0 || inferences <= 0 {
		return 0
	}
	tau := c.DriftTau
	if tau <= 0 {
		tau = 1e3
	}
	return c.DriftSigma * math.Log10(1+inferences/tau)
}

// EffectiveWeight returns the logical weight a programmed cell reads back
// as, after quantization to the technology's level grid, post-verify device
// states (stuck devices pin their plane to a rail; the verify loop repairs
// transient write failures, so OK devices land on target), and per-device
// drift multipliers (1 means no drift). This is the device physics shared
// by the electrical crossbar model and the functional accuracy-under-fault
// sweep.
func EffectiveWeight(m *quant.Mapper, w float64, pos, neg DeviceState, driftPos, driftNeg float64) float64 {
	pair := m.Map(w)
	gmin, gmax := m.Tech.GMin(), m.Tech.GMax()
	pair.GPos = driftClamp(stuckValue(pair.GPos, pos, gmin, gmax)*driftPos, gmin, gmax)
	pair.GNeg = driftClamp(stuckValue(pair.GNeg, neg, gmin, gmax)*driftNeg, gmin, gmax)
	return m.Weight(pair)
}

func stuckValue(g float64, s DeviceState, gmin, gmax float64) float64 {
	switch s {
	case StuckLow:
		return gmin
	case StuckHigh:
		return gmax
	default:
		return g
	}
}

func driftClamp(g, gmin, gmax float64) float64 {
	if g < gmin {
		return gmin
	}
	if g > gmax {
		return gmax
	}
	return g
}

// DriftFactor draws one device's multiplicative drift from the stream:
// exp(sigma * N(0,1)). Callers draw in canonical cell order from DriftRng
// so the factors are reproducible.
func DriftFactor(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}
