// Package mpe implements the macro Processing Engine (§3.1.1, Fig 4): the
// lowest reconfigurable tier of RESPARC. An mPE holds up to four MCAs, each
// with its input/output/target buffers, a bank of IF neurons, a Local
// Control Unit sequencing time-multiplexed integration of MCA currents onto
// the neurons, and a Current Control Unit (CCU) that ships analog MCA
// currents to a neighboring mPE when a neuron's fan-in spans mPEs (C_ext).
//
// The model is functional with event accounting: the NeuroCell simulator
// (internal/neurocell) sequences packet delivery and integration cycles and
// reads the counters; numerical behaviour is bit-faithful to the functional
// SNN model (internal/snn) in Ideal weight mode, or runs through the
// physical crossbar model (internal/xbar) when a technology is attached.
package mpe

import (
	"fmt"
	"math/bits"
	"math/rand"

	"resparc/internal/bitvec"
	"resparc/internal/fault"
	"resparc/internal/mapping"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/xbar"
)

// Mode selects how an MCA slot evaluates its inner products.
type Mode int

const (
	// Ideal stores exact float weights: the slot computes the same values
	// as the functional SNN model (used for equivalence testing and fast
	// simulation).
	Ideal Mode = iota
	// Physical programs a real crossbar (quantized conductances,
	// optionally perturbed) and evaluates through the electrical model.
	Physical
)

// MCASlot is one crossbar with its buffers inside an mPE.
type MCASlot struct {
	Alloc *mapping.MCA
	Size  int
	Mode  Mode

	// rowOf maps a global presynaptic index to the local row.
	rowOf map[int32]int
	// weights is the logical Rows x Cols weight block (Ideal mode and
	// read-back reference).
	weights *tensor.Mat
	// xb is the physical crossbar (Physical mode).
	xb *xbar.Crossbar

	// active marks local rows that spiked this timestep (the iBUFF state
	// after packet delivery).
	active *bitvec.Bits
	// out is the column buffer Currents returns, reused across calls (the
	// crossbar's full width in Physical mode); full pads the active rows to
	// the crossbar's height (Physical mode).
	out  tensor.Vec
	full *bitvec.Bits

	// dead marks a killed crossbar (whole-slot or whole-mPE fault): the slot
	// still receives packets (the switch fabric does not know) but computes
	// nothing.
	dead bool

	// Counters (cleared by ResetCounters).
	Activations  int // timesteps in which the MCA computed
	PacketsIn    int // non-zero packets delivered to the iBUFF
	PacketsZero  int // packets suppressed by zero-check before delivery
	RowsDriven   int // total active rows across activations
	ExtTransfers int // CCU analog transfers to the group owner
}

// NewSlot builds a slot for one mapped MCA, extracting its weight block
// from the layer. xb may be nil for Ideal mode.
func NewSlot(layer *snn.Layer, alloc *mapping.MCA, size int, mode Mode, xb *xbar.Crossbar) (*MCASlot, error) {
	if len(alloc.Inputs) > size || len(alloc.Outputs) > size {
		return nil, fmt.Errorf("mpe: allocation %dx%d exceeds MCA size %d", len(alloc.Inputs), len(alloc.Outputs), size)
	}
	if mode == Physical && xb == nil {
		return nil, fmt.Errorf("mpe: physical mode requires a crossbar")
	}
	s := &MCASlot{
		Alloc: alloc, Size: size, Mode: mode,
		rowOf:   make(map[int32]int, len(alloc.Inputs)),
		weights: tensor.NewMat(len(alloc.Inputs), len(alloc.Outputs)),
		xb:      xb,
		active:  bitvec.New(len(alloc.Inputs)),
		out:     tensor.NewVec(len(alloc.Outputs)),
	}
	if mode == Physical {
		s.out = tensor.NewVec(xb.Cols)
		s.full = bitvec.New(xb.Rows)
	}
	for r, in := range alloc.Inputs {
		s.rowOf[in] = r
	}
	for c, out := range alloc.Outputs {
		for r, in := range alloc.Inputs {
			w, ok := layer.Weight(int(out), int(in))
			if !ok {
				continue
			}
			s.weights.Set(r, c, w)
			if mode == Physical {
				xb.Program(r, c, w)
			}
		}
	}
	return s, nil
}

// ResetTimestep clears the delivered-spike state (between timesteps).
func (s *MCASlot) ResetTimestep() { s.active.Reset() }

// ResetCounters zeroes the event counters.
func (s *MCASlot) ResetCounters() {
	s.Activations, s.PacketsIn, s.PacketsZero, s.RowsDriven, s.ExtTransfers = 0, 0, 0, 0, 0
}

// DeliverPacket delivers one spike packet for this timestep: bits holds
// spikes of the slot's inputs [base, base+64) (local row indexing). Zero
// packets count as suppressed and are not delivered.
func (s *MCASlot) DeliverPacket(base int, bits uint64) {
	if bits == 0 {
		s.PacketsZero++
		return
	}
	s.PacketsIn++
	for b := bits; b != 0; b &= b - 1 {
		i := base + trailingZerosU64(b)
		if i < len(s.Alloc.Inputs) {
			s.active.Set(i)
		}
	}
}

// MarkActive marks the slot's spiking rows directly from the layer-wide
// input spike vector. Packet accounting is done separately (per mPE — the
// mPE's buffers receive each source word once and fan it out to the
// resident MCAs), and zero-word suppression never hides a spiking row, so
// row marking is independent of the transfer path.
func (s *MCASlot) MarkActive(layerInput *bitvec.Bits) {
	for r, in := range s.Alloc.Inputs {
		if layerInput.Get(int(in)) {
			s.active.Set(r)
		}
	}
}

// InputWords returns the ascending width-bit source-word indices this
// slot's inputs occupy.
func (s *MCASlot) InputWords(width int) []int {
	var out []int
	last := -1
	for _, in := range s.Alloc.Inputs {
		w := int(in) / width
		if w != last {
			out = append(out, w)
			last = w
		}
	}
	return out
}

// DeliverFrom delivers the layer-wide input spike vector to this slot using
// source-word packets: spike packets are the width-bit aligned words of the
// producer layer's spike vector (the packets the producing mPEs emit), and
// the slot receives every word that covers at least one of its input rows.
// The zero-check suppresses all-zero source words (§3.2) — this is how MLPs
// "find zero run-lengths" in their 1-D input vectors (§5.3). It returns the
// number of non-zero packets delivered.
func (s *MCASlot) DeliverFrom(layerInput *bitvec.Bits, width int) int {
	delivered := 0
	lastWord := -1
	zero := false
	for r, in := range s.Alloc.Inputs {
		word := int(in) / width
		if word != lastWord {
			lastWord = word
			// Zero-check the whole source word once.
			zero = sourceWordZero(layerInput, word, width)
			if zero {
				s.PacketsZero++
			} else {
				s.PacketsIn++
				delivered++
			}
		}
		if !zero && layerInput.Get(int(in)) {
			s.active.Set(r)
		}
	}
	return delivered
}

// sourceWordZero reports whether source word w (width bits) of the spike
// vector is all zero.
func sourceWordZero(v *bitvec.Bits, word, width int) bool {
	start := word * width
	end := start + width
	if end > v.Len() {
		end = v.Len()
	}
	for i := start; i < end; i++ {
		if v.Get(i) {
			return false
		}
	}
	return true
}

// Active reports whether any row spiked this timestep.
func (s *MCASlot) Active() bool { return s.active.Any() }

// ActiveRows returns the number of driven rows this timestep.
func (s *MCASlot) ActiveRows() int { return s.active.Count() }

// Currents evaluates the slot's column outputs for the delivered spikes, in
// weight units (what the neurons integrate). In Physical mode the values
// pass through the electrical crossbar model. A dead slot contributes
// nothing (and computes nothing — the LCU skips it). The result is the
// slot's own buffer: it holds until the next Currents call on this slot.
func (s *MCASlot) Currents(cfg xbar.Config) tensor.Vec {
	out := s.out[:len(s.Alloc.Outputs)]
	if s.dead {
		out.Fill(0)
		return out
	}
	s.Activations++
	s.RowsDriven += s.active.Count()
	if s.Mode == Physical {
		// The crossbar is Size x Size; pad the active rows.
		s.full.Reset()
		s.active.ForEachSet(func(i int) { s.full.Set(i) })
		s.xb.Compute(s.full, cfg, s.out)
		return out
	}
	out.Fill(0)
	s.active.ForEachSet(func(r int) {
		row := s.weights.Row(r)
		for c, w := range row {
			out[c] += w
		}
	})
	return out
}

// Perturb injects device non-idealities into the slot's physical crossbar
// (no-op in Ideal mode).
func (s *MCASlot) Perturb(cfg xbar.Config, rng *rand.Rand) {
	if s.Mode == Physical {
		s.xb.Perturb(cfg, rng)
	}
}

// SetDead marks the slot killed (whole-crossbar or whole-mPE fault).
func (s *MCASlot) SetDead(dead bool) { s.dead = dead }

// Dead reports whether the slot is killed.
func (s *MCASlot) Dead() bool { return s.dead }

// SetFaults installs a per-device fault map on the slot's physical crossbar
// and reprograms the weight block through it, so stuck devices take effect
// immediately. Error in Ideal mode (there is no device to fault).
func (s *MCASlot) SetFaults(m *fault.CellMap) error {
	if s.Mode != Physical {
		return fmt.Errorf("mpe: fault maps need a physical crossbar")
	}
	s.xb.SetFaults(m)
	return s.reprogram(nil)
}

// Verify reprograms the slot's weight block with the crossbar's
// program-verify loop and returns the report; the unrepairable cells are
// what the fault-aware mapping pass uses to decide remapping. Error in
// Ideal mode.
func (s *MCASlot) Verify(cfg xbar.VerifyConfig) (xbar.VerifyReport, error) {
	if s.Mode != Physical {
		return xbar.VerifyReport{}, fmt.Errorf("mpe: verify needs a physical crossbar")
	}
	var rep xbar.VerifyReport
	err := s.reprogram(func(x *xbar.Crossbar) error {
		var verr error
		rep, verr = x.ProgramVerify(s.weights, cfg)
		return verr
	})
	return rep, err
}

// Scan runs a read-only verify scan of the slot's physical crossbar against
// its logical weight block — the sampled degradation probe of the lifetime
// repair loop. No write pulses are issued; tol <= 0 selects half a
// quantization step. Error in Ideal mode.
func (s *MCASlot) Scan(tol float64) (xbar.ScanReport, error) {
	if s.Mode != Physical {
		return xbar.ScanReport{}, fmt.Errorf("mpe: scan needs a physical crossbar")
	}
	return s.xb.ScanVerify(s.weights, tol)
}

// reprogram rewrites the logical weight block into the crossbar, through fn
// when given (e.g. the verify loop) or plain Program otherwise.
func (s *MCASlot) reprogram(fn func(*xbar.Crossbar) error) error {
	if fn != nil {
		return fn(s.xb)
	}
	for c := range s.Alloc.Outputs {
		for r := range s.Alloc.Inputs {
			s.xb.Program(r, c, s.weights.At(r, c))
		}
	}
	return nil
}

// ReadbackWeight returns the logical weight stored at (global out, global
// in) after programming — in Physical mode this includes conductance
// quantization, so tests can build an exact digital reference.
func (s *MCASlot) ReadbackWeight(out, in int32) (float64, bool) {
	r, ok := s.rowOf[in]
	if !ok {
		return 0, false
	}
	for c, o := range s.Alloc.Outputs {
		if o == out {
			if s.Mode == Physical {
				return s.xb.Weight(r, c), true
			}
			return s.weights.At(r, c), true
		}
	}
	return 0, false
}

func trailingZerosU64(b uint64) int { return bits.TrailingZeros64(b) }

// MPE is one macro processing engine: up to MCAsPerMPE slots. Neuron state
// lives with the owning group (managed by the NeuroCell simulator); the mPE
// provides the slot containers and aggregated counters.
type MPE struct {
	ID    int
	Slots []*MCASlot
}

// Counters aggregates the event counters of every slot.
type Counters struct {
	Activations, PacketsIn, PacketsZero, RowsDriven, ExtTransfers int
}

// SetDead kills (or revives) every slot of the mPE — the whole-mPE kill
// switch of a fault campaign (power gating failure, dead local control unit).
func (m *MPE) SetDead(dead bool) {
	for _, s := range m.Slots {
		s.SetDead(dead)
	}
}

// Counters sums the slot counters.
func (m *MPE) Counters() Counters {
	var c Counters
	for _, s := range m.Slots {
		c.Activations += s.Activations
		c.PacketsIn += s.PacketsIn
		c.PacketsZero += s.PacketsZero
		c.RowsDriven += s.RowsDriven
		c.ExtTransfers += s.ExtTransfers
	}
	return c
}
