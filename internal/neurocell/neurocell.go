// Package neurocell implements the middle reconfigurable tier (§3.1.2): a
// pool of mPEs joined by programmable switches, simulated at cycle
// granularity. Spike packets move through the switch network (each switch
// forwards one packet per cycle; dedicated row/column links make every
// transfer one hop), MCAs whose packets arrived evaluate their column
// currents, and each output group time-multiplexes its member MCAs onto its
// neurons, one per cycle (Fig 5b). Analog currents crossing mPE boundaries
// are CCU transfers over the gated inter-mPE wires (dashed lines in Fig 3).
//
// The simulator is the golden architectural model for small networks: its
// spike output is bit-identical to the functional SNN model (internal/snn)
// in Ideal weight mode, and its event counters are the reference for the
// scalable transaction-level model in internal/core.
package neurocell

import (
	"fmt"
	"math/rand"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
	"resparc/internal/mapping"
	"resparc/internal/mpe"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/xbar"
)

// Stats are the raw event counts of a simulation run.
type Stats struct {
	Cycles             int // NeuroCell clock cycles
	BusWords           int // 64-bit words serialized on the global IO bus
	BusWordsSuppressed int // bus words suppressed by the SRAM zero-check
	PacketsDelivered   int // non-zero packets through the switch network
	PacketsSuppressed  int // packets suppressed by switch zero-check
	MCAActivations     int // MCA evaluations
	RowsDriven         int // total active rows over all activations
	Integrations       int // column-current integrations into neurons
	Spikes             int // output spikes generated
	ExtTransfers       int // CCU analog current transfers between mPEs
}

// Sim is a cycle-level simulation of a mapped network.
type Sim struct {
	Net  *snn.Network
	Map  *mapping.Mapping
	Mode mpe.Mode
	XCfg xbar.Config
	// IntegrateCycles is the cost of one time-multiplexed MCA integration
	// (defaults to the calibrated energy.Params value).
	IntegrateCycles int
	// SyncCyclesPerNC is the global-control event-flag cost per spanned
	// NeuroCell per layer per timestep.
	SyncCyclesPerNC int
	// BusWordsPerCycle is the global bus width in 64-bit words.
	BusWordsPerCycle int

	MPEs   []*mpe.MPE
	layers []simLayer
	Stats  Stats
}

type group struct {
	slots    []*mpe.MCASlot
	neurons  []int32 // global postsynaptic indices (columns of the group)
	vmem     tensor.Vec
	ownerMPE int
}

type simLayer struct {
	layer  *snn.Layer
	lm     *mapping.LayerMapping
	slots  []*mpe.MCASlot
	groups []*group
	// srcWords lists, mPE by mPE, the 64-bit source words each mPE
	// receives: a word is delivered once per mPE and fanned out to the
	// resident MCAs, so a word appears once for every mPE whose slots read
	// it. Slot inputs are fixed at mapping time, so the lists are built once.
	srcWords []int
	outBuf   *bitvec.Bits
}

// New builds the simulator for a network and its mapping. In Physical mode
// each MCA is realized by a crossbar of the mapping's technology.
func New(net *snn.Network, m *mapping.Mapping, mode mpe.Mode, xcfg xbar.Config) (*Sim, error) {
	if m.Net != net {
		return nil, fmt.Errorf("neurocell: mapping belongs to a different network")
	}
	def := energy.Default45nm()
	s := &Sim{Net: net, Map: m, Mode: mode, XCfg: xcfg,
		IntegrateCycles: def.IntegrateCycles, SyncCyclesPerNC: def.SyncCyclesPerNC,
		BusWordsPerCycle: def.BusWordsPerCycle}
	s.MPEs = make([]*mpe.MPE, m.MPEs)
	for i := range s.MPEs {
		s.MPEs[i] = &mpe.MPE{ID: i}
	}
	for li := range m.Layers {
		lm := &m.Layers[li]
		size := m.LayerSize(li)
		sl := simLayer{layer: lm.Layer, lm: lm, outBuf: bitvec.New(lm.Layer.OutSize())}
		// wmax for physical programming: full-scale weight of the layer.
		wmax := 1.0
		if lm.Layer.W != nil {
			if ma := lm.Layer.W.MaxAbs(); ma > 0 {
				wmax = ma
			}
		}
		groupsByID := map[int]*group{}
		for ai := range lm.MCAs {
			alloc := &lm.MCAs[ai]
			var xb *xbar.Crossbar
			if mode == mpe.Physical {
				var err error
				xb, err = xbar.New(size, size, m.Cfg.Tech, wmax)
				if err != nil {
					return nil, err
				}
			}
			slot, err := mpe.NewSlot(lm.Layer, alloc, size, mode, xb)
			if err != nil {
				return nil, err
			}
			s.MPEs[alloc.MPE].Slots = append(s.MPEs[alloc.MPE].Slots, slot)
			sl.slots = append(sl.slots, slot)
			g, ok := groupsByID[alloc.Group]
			if !ok {
				g = &group{neurons: alloc.Outputs, ownerMPE: alloc.MPE}
				g.vmem = tensor.NewVec(len(alloc.Outputs))
				groupsByID[alloc.Group] = g
				sl.groups = append(sl.groups, g)
			}
			g.slots = append(g.slots, slot)
		}
		// Group the layer's slots by mPE for per-mPE packet delivery.
		byMPE := map[int][]*mpe.MCASlot{}
		order := []int{}
		for ai := range lm.MCAs {
			id := lm.MCAs[ai].MPE
			if _, ok := byMPE[id]; !ok {
				order = append(order, id)
			}
			byMPE[id] = append(byMPE[id], sl.slots[ai])
		}
		for _, id := range order {
			sl.srcWords = append(sl.srcWords, unionWords(byMPE[id], 64)...)
		}
		// Validate: all slots of a group expose identical output lists.
		for _, g := range sl.groups {
			for _, slot := range g.slots {
				if len(slot.Alloc.Outputs) != len(g.neurons) {
					return nil, fmt.Errorf("neurocell: group output mismatch in layer %d", li)
				}
				for i, o := range slot.Alloc.Outputs {
					if o != g.neurons[i] {
						return nil, fmt.Errorf("neurocell: group output mismatch in layer %d", li)
					}
				}
			}
		}
		s.layers = append(s.layers, sl)
	}
	return s, nil
}

// Perturb injects device non-idealities into every physical crossbar (used
// by the non-ideality ablation; no-op in Ideal mode).
func (s *Sim) Perturb(cfg xbar.Config, rng *rand.Rand) {
	for i := range s.layers {
		for _, slot := range s.layers[i].slots {
			slot.Perturb(cfg, rng)
		}
	}
}

// Reset clears membrane potentials and counters (between classifications).
func (s *Sim) Reset() {
	for i := range s.layers {
		for _, g := range s.layers[i].groups {
			g.vmem.Fill(0)
		}
	}
	s.Stats = Stats{}
}

// switchesFor returns the number of switches available to a layer's packet
// traffic (see mapping.LayerMapping.Switches).
func (s *Sim) switchesFor(lm *mapping.LayerMapping) int {
	return lm.Switches(s.Map.Cfg)
}

// Step advances one SNN timestep: inputs propagate layer by layer exactly
// as in Fig 7, accumulating cycle and event counts. It returns the final
// layer's spikes (valid until the next Step).
func (s *Sim) Step(input *bitvec.Bits) *bitvec.Bits {
	if input.Len() != s.Net.Input.Size() {
		panic(fmt.Sprintf("neurocell: input %d bits, want %d", input.Len(), s.Net.Input.Size()))
	}
	cur := input
	for li := range s.layers {
		sl := &s.layers[li]
		// --- Global control: event-flag synchronization (flags are read
		// eight NeuroCells per access) ---
		s.Stats.Cycles += s.SyncCyclesPerNC * ((sl.lm.NCLast - sl.lm.NCFirst + 1 + 7) / 8)
		// --- Data distribution phase ---
		if s.Map.CrossNC(li) {
			// Global bus: the producer's spike words are staged in SRAM and
			// broadcast; the SRAM zero-check suppresses all-zero words
			// (§3.2). Every word is checked; non-zero words serialize on
			// the bus.
			zero, total := cur.ZeroPackets(64)
			sent := total - zero
			s.Stats.BusWords += sent
			s.Stats.BusWordsSuppressed += zero
			s.Stats.Cycles += (sent + s.BusWordsPerCycle - 1) / s.BusWordsPerCycle
		}
		// Switch network: spike packets are the 64-bit source words of the
		// producer's spike vector, zero-checked at the sending switch and
		// delivered once per target mPE (the mPE's buffers fan a word out
		// to its resident MCAs). Switches work in parallel, one packet per
		// cycle each.
		for _, slot := range sl.slots {
			slot.ResetTimestep()
			slot.MarkActive(cur)
		}
		delivered := 0
		for _, w := range sl.srcWords {
			if !wordNonZero(cur, w, 64) {
				s.Stats.PacketsSuppressed++
				continue
			}
			delivered++
		}
		s.Stats.PacketsDelivered += delivered
		sw := s.switchesFor(sl.lm)
		s.Stats.Cycles += (delivered + sw - 1) / sw

		// --- Compute phase ---
		maxMux := 0
		for _, g := range sl.groups {
			if sl.layer.Leak > 0 {
				g.vmem.Scale(1 - sl.layer.Leak)
			}
			mux := 0
			for _, slot := range g.slots {
				if !slot.Active() {
					continue
				}
				col := slot.Currents(s.XCfg)
				g.vmem.AddScaled(1, col)
				mux++
				s.Stats.MCAActivations++
				s.Stats.RowsDriven += slot.ActiveRows()
				s.Stats.Integrations += len(g.neurons)
				if slot.Alloc.MPE != g.ownerMPE {
					slot.ExtTransfers++
					s.Stats.ExtTransfers++
				}
			}
			if mux > maxMux {
				maxMux = mux
			}
		}
		// Groups integrate in parallel; within a group, MCA currents
		// integrate one after another (time multiplexing, Fig 5b), each
		// taking IntegrateCycles.
		s.Stats.Cycles += maxMux * s.IntegrateCycles

		// --- Fire phase ---
		sl.outBuf.Reset()
		th := sl.layer.Threshold
		for _, g := range sl.groups {
			for i, n := range g.neurons {
				if g.vmem[i] >= th {
					if sl.layer.HardReset {
						g.vmem[i] = 0
					} else {
						g.vmem[i] -= th
					}
					sl.outBuf.Set(int(n))
					s.Stats.Spikes++
				}
			}
		}
		if spikes := sl.outBuf.Count(); spikes > 0 || maxMux > 0 {
			// Spikes drain through the mPEs' output ports in parallel, one
			// per mPE per cycle (threshold check costs a cycle even when
			// silent).
			mpes := sl.lm.MPELast - sl.lm.MPEFirst + 1
			s.Stats.Cycles += (spikes + mpes - 1) / mpes
			if spikes == 0 {
				s.Stats.Cycles++
			}
		}
		cur = sl.outBuf
	}
	return cur
}

// unionWords returns the union of the slots' source-word indices, each word
// once, in order of first use.
func unionWords(slots []*mpe.MCASlot, width int) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range slots {
		for _, w := range s.InputWords(width) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// wordNonZero reports whether source word w of the spike vector holds a
// spike.
func wordNonZero(v *bitvec.Bits, word, width int) bool {
	start := word * width
	end := start + width
	if end > v.Len() {
		end = v.Len()
	}
	for i := start; i < end; i++ {
		if v.Get(i) {
			return true
		}
	}
	return false
}

// Run classifies one input over the given timesteps, mirroring
// snn.State.RunBlockedK, and returns the predicted class.
func (s *Sim) Run(intensity tensor.Vec, enc snn.Encoder, steps int) int {
	s.Reset()
	counts := make([]int, s.Net.OutSize())
	in := bitvec.New(s.Net.Input.Size())
	for t := 0; t < steps; t++ {
		enc.Encode(intensity, in)
		out := s.Step(in)
		out.ForEachSet(func(i int) { counts[i]++ })
	}
	best, bestN := 0, -1
	for i, c := range counts {
		if c > bestN {
			best, bestN = i, c
		}
	}
	return best
}
