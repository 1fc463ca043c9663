// Package mapping is the RESPARC compiler: it enumerates an SNN's
// connectivity matrices across Memristive Crossbar Arrays, packs MCAs into
// mPEs and mPEs into NeuroCells, and reports the utilization and
// time-multiplexing statistics that drive the energy/performance model.
//
// Dense layers partition into a grid of fully used MCA tiles (§3.1.1,
// Fig 5): a neuron whose fan-in exceeds the MCA rows is computed by
// time-multiplexing several MCA column currents onto the neuron. Sparse
// (convolutional) layers use the input-sharing packing of §3.1.1: output
// neurons at the same spatial location share their receptive field, so the
// mapper groups outputs to maximize cross-point utilization; utilization
// still falls as the MCA grows — the effect behind Fig 12(c).
package mapping

import (
	"fmt"
	"slices"

	"resparc/internal/device"
	"resparc/internal/snn"
)

// Config selects the crossbar size and the fixed hierarchy parameters
// (Fig 8: 4 MCAs per mPE, 4x4 mPEs per NeuroCell).
type Config struct {
	// MCASize is the square crossbar dimension N (rows == cols). The paper
	// evaluates 32, 64 (default) and 128.
	MCASize int
	// MCAsPerMPE is the number of crossbars per macro processing engine.
	MCAsPerMPE int
	// MPEsPerNC is the number of mPEs per NeuroCell.
	MPEsPerNC int
	// Tech is the memristive technology; MCASize must not exceed its
	// reliable maximum.
	Tech device.Technology
	// DisableInputSharing maps each sparse-layer unit (one conv location /
	// one pooled output) to its own crossbar block instead of packing units
	// with overlapping receptive fields together — the naive mapping
	// §3.1.1 argues against. Ablation only.
	DisableInputSharing bool
	// SparseDenseMaxFill routes dense layers whose non-zero weight fraction
	// is at or below this value through the sparse unit packer (one unit
	// per output neuron, rows for its non-zero inputs only) — §3.1.1's
	// sparse-connectivity optimization applied to pruned MLPs. Zero
	// disables the feature (dense layers always tile densely).
	//
	// Input sharing only pays off for STRUCTURED sparsity (outputs whose
	// non-zero inputs overlap, e.g. block-pruned matrices); unstructured
	// random pruning has no input locality, so its per-output units share
	// almost nothing and dense tiling remains the better mapping — the
	// classic crossbar argument for structured pruning.
	SparseDenseMaxFill float64
}

// DefaultConfig returns the paper's default: 64x64 Ag-Si MCAs, 4 per mPE,
// 16 mPEs per NeuroCell.
func DefaultConfig() Config {
	return Config{MCASize: 64, MCAsPerMPE: 4, MPEsPerNC: 16, Tech: device.AgSi}
}

// Validate checks the configuration against the technology constraint.
func (c Config) Validate() error {
	if c.MCASize < 2 {
		return fmt.Errorf("mapping: MCA size %d", c.MCASize)
	}
	if c.MCAsPerMPE < 1 || c.MPEsPerNC < 1 {
		return fmt.Errorf("mapping: hierarchy %d MCAs/mPE, %d mPEs/NC", c.MCAsPerMPE, c.MPEsPerNC)
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if c.MCASize > c.Tech.MaxSize {
		return fmt.Errorf("mapping: MCA size %d exceeds %s reliable maximum %d (technology-aware constraint)",
			c.MCASize, c.Tech.Name, c.Tech.MaxSize)
	}
	return nil
}

// MCA is one allocated crossbar: the input neurons wired to its rows, the
// output neurons wired to its columns, and the programmed cross-point count.
type MCA struct {
	// Layer is the index of the SNN layer this MCA belongs to.
	Layer int
	// Group identifies the output-neuron group: all MCAs of a group feed
	// the same neurons and are integrated one after another
	// (time-multiplexed, Fig 5b); len(group) == MuxDegree.
	Group int
	// Inputs are the flat presynaptic indices on the rows (<= MCASize).
	Inputs []int32
	// Outputs are the flat postsynaptic indices on the columns (<= MCASize).
	Outputs []int32
	// Taps is the number of programmed (used) cross-points.
	Taps int
	// MPE and NC are the placement indices assigned by packing; Slot is the
	// crossbar slot within the mPE ([0, MCAsPerMPE)). Together (MPE, Slot)
	// name the physical crossbar — the coordinate fault campaigns key on.
	MPE, NC, Slot int
}

// Utilization is the fraction of the physical array occupied by programmed
// cross-points.
func (m *MCA) Utilization(size int) float64 {
	return float64(m.Taps) / float64(size*size)
}

// LayerMapping is the allocation of one SNN layer.
type LayerMapping struct {
	Layer *snn.Layer
	// MCASize is this layer's crossbar dimension. Map sets it uniformly
	// from Config.MCASize; mappings realized from a heterogeneous Placement
	// carry a different size per layer. Zero (hand-constructed mappings
	// predating the field) falls back to the config via Mapping.LayerSize.
	MCASize int
	MCAs    []MCA
	// Groups is the number of output groups; MuxDegree is the maximum
	// number of MCAs feeding one group (the time-multiplexing degree).
	Groups    int
	MuxDegree int
	// Utilization is taps / (N² * len(MCAs)).
	Utilization float64
	// MPEFirst/MPELast and NCFirst/NCLast are the placement ranges
	// (inclusive-exclusive on Last+1... inclusive indices).
	MPEFirst, MPELast int
	NCFirst, NCLast   int
}

// Mapping is a complete placement of a network for one configuration.
type Mapping struct {
	Net    *snn.Network
	Cfg    Config
	Layers []LayerMapping
	// Totals.
	MCAs, MPEs, NCs int
	// SpareFirst/Spares delimit the spare-mPE pool appended by the
	// fault-aware pass (see RemapFaulty); zero Spares means no pool.
	SpareFirst, Spares int
	// spareCursor is the next unassigned spare slot (slot-major).
	spareCursor int
}

// Map places the network onto the hierarchy. Layers are allocated in order;
// MCAs pack densely into mPEs (4 per mPE) and mPEs into NeuroCells, with
// every layer starting on a fresh mPE (a layer's neurons live with its
// MCAs). Every layer uses the uniform cfg.MCASize; heterogeneous per-layer
// sizes come from a Placement (see Mapper and Placement.Apply).
func Map(net *snn.Network, cfg Config) (*Mapping, error) {
	return mapLayers(net, cfg, nil, nil)
}

// mapLayers is the generalized placement core behind Map and
// Placement.Apply: sizes[li], when non-zero, overrides cfg.MCASize for
// layer li (heterogeneous crossbars), and ncAlign[li] starts layer li on a
// fresh NeuroCell boundary instead of merely a fresh mPE — the placement
// knob that decides whether consecutive layers share a NeuroCell (and so
// whether their traffic rides the switch networks or the global bus, see
// TransportOf). Nil slices reproduce Map exactly.
func mapLayers(net *snn.Network, cfg Config, sizes []int, ncAlign []bool) (*Mapping, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("mapping: network %q has no layers", net.Name)
	}
	m := &Mapping{Net: net, Cfg: cfg}
	mpeCursor := 0
	for li, l := range net.Layers {
		n := cfg.MCASize
		if li < len(sizes) && sizes[li] > 0 {
			n = sizes[li]
		}
		if n < 2 || n > cfg.Tech.MaxSize {
			return nil, fmt.Errorf("mapping: layer %d MCA size %d outside [2,%d] for %s",
				li, n, cfg.Tech.MaxSize, cfg.Tech.Name)
		}
		lm, err := layerMappingFor(li, l, cfg, n)
		if err != nil {
			return nil, err
		}
		if li < len(ncAlign) && ncAlign[li] && mpeCursor%cfg.MPEsPerNC != 0 {
			mpeCursor += cfg.MPEsPerNC - mpeCursor%cfg.MPEsPerNC
		}
		// Pack this layer's MCAs into mPEs starting at a fresh mPE.
		lm.MPEFirst = mpeCursor
		for i := range lm.MCAs {
			lm.MCAs[i].MPE = mpeCursor + i/cfg.MCAsPerMPE
			lm.MCAs[i].NC = lm.MCAs[i].MPE / cfg.MPEsPerNC
			lm.MCAs[i].Slot = i % cfg.MCAsPerMPE
		}
		used := (len(lm.MCAs) + cfg.MCAsPerMPE - 1) / cfg.MCAsPerMPE
		mpeCursor += used
		lm.MPELast = mpeCursor - 1
		lm.NCFirst = lm.MPEFirst / cfg.MPEsPerNC
		lm.NCLast = lm.MPELast / cfg.MPEsPerNC
		// Utilization over allocated arrays.
		taps := 0
		for i := range lm.MCAs {
			taps += lm.MCAs[i].Taps
		}
		lm.Utilization = float64(taps) / float64(n*n*len(lm.MCAs))
		m.Layers = append(m.Layers, lm)
	}
	m.MPEs = mpeCursor
	m.NCs = (mpeCursor + cfg.MPEsPerNC - 1) / cfg.MPEsPerNC
	for i := range m.Layers {
		m.MCAs += len(m.Layers[i].MCAs)
	}
	return m, nil
}

// layerMappingFor maps one layer onto size-n crossbars, position-free (no
// mPE/NC assignment yet). Within-layer packing is independent of where the
// layer lands: every layer starts on a fresh mPE, so MCA i always occupies
// relative mPE i/MCAsPerMPE — the property the mapper's cost model exploits
// to cache per-(layer, size) statistics.
func layerMappingFor(li int, l *snn.Layer, cfg Config, n int) (LayerMapping, error) {
	var lm LayerMapping
	var err error
	switch l.Kind {
	case snn.DenseLayer:
		if cfg.SparseDenseMaxFill > 0 && denseFill(l) <= cfg.SparseDenseMaxFill {
			lm = packUnits(li, denseUnits(l), l.InSize(), cfg, n)
		} else {
			lm = mapDense(li, l, n)
		}
	case snn.ConvLayer, snn.PoolLayer:
		lm, err = mapSparse(li, l, cfg, n)
		if err != nil {
			return LayerMapping{}, err
		}
	default:
		return LayerMapping{}, fmt.Errorf("mapping: layer %d unknown kind", li)
	}
	lm.Layer = l
	lm.MCASize = n
	return lm, nil
}

// LayerSize returns layer li's crossbar dimension: the per-layer size when
// the mapping carries one, the uniform Config.MCASize otherwise. Consumers
// that model or build physical arrays (core, neurocell, repair, fault
// surveys) must size per layer through this instead of reaching into
// Cfg.MCASize, or heterogeneous placements would mis-model the hardware.
func (m *Mapping) LayerSize(li int) int {
	if s := m.Layers[li].MCASize; s > 0 {
		return s
	}
	return m.Cfg.MCASize
}

// mapDense tiles the Out x In connectivity matrix with N x N blocks
// (Fig 5b). Row blocks of one column stripe share an output group and are
// time-multiplexed onto its neurons.
func mapDense(li int, l *snn.Layer, n int) LayerMapping {
	in, out := l.InSize(), l.OutSize()
	colBlocks := (out + n - 1) / n
	rowBlocks := (in + n - 1) / n
	lm := LayerMapping{Groups: colBlocks, MuxDegree: rowBlocks}
	group := 0
	for cb := 0; cb < colBlocks; cb++ {
		o0 := cb * n
		o1 := min(o0+n, out)
		outputs := rangeSlice(o0, o1)
		for rb := 0; rb < rowBlocks; rb++ {
			i0 := rb * n
			i1 := min(i0+n, in)
			lm.MCAs = append(lm.MCAs, MCA{
				Layer:   li,
				Group:   group,
				Inputs:  rangeSlice(i0, i1),
				Outputs: outputs,
				Taps:    (i1 - i0) * (o1 - o0),
			})
		}
		group++
	}
	return lm
}

// unit is the indivisible packing element of the sparse mapper: a set of
// output neurons sharing one input set. For convolutions a unit is one
// spatial location (all output channels share the receptive field — the
// input-sharing of §3.1.1); for pooling a unit is a single output neuron
// (windows are disjoint, nothing is shared).
type unit struct {
	inputs  []int32
	outputs []int32
	taps    int
}

// mapSparse packs convolution/pool outputs into MCAs with input sharing.
func mapSparse(li int, l *snn.Layer, cfg Config, n int) (LayerMapping, error) {
	units, err := unitsOf(l)
	if err != nil {
		return LayerMapping{}, fmt.Errorf("mapping: layer %d: %w", li, err)
	}
	return packUnits(li, units, l.InSize(), cfg, n), nil
}

// denseFill returns the non-zero weight fraction of a dense layer.
func denseFill(l *snn.Layer) float64 {
	if l.W == nil || len(l.W.Data) == 0 {
		return 1
	}
	nz := l.W.Data.CountNonZero(0)
	return float64(nz) / float64(len(l.W.Data))
}

// denseUnits builds one packing unit per output neuron of a (pruned) dense
// layer: its rows are exactly the inputs with non-zero weights. Every
// unit's lists are carved out of two shared chunks.
func denseUnits(l *snn.Layer) []unit {
	out := l.OutSize()
	units := make([]unit, 0, out)
	ins := make([]int32, 0, l.W.Data.CountNonZero(0))
	outs := make([]int32, out)
	for o := 0; o < out; o++ {
		start := len(ins)
		for i, w := range l.W.Row(o) {
			if w != 0 {
				ins = append(ins, int32(i))
			}
		}
		var u []int32
		if len(ins) > start {
			u = ins[start:len(ins):len(ins)]
		}
		outs[o] = int32(o)
		units = append(units, unit{
			inputs:  u,
			outputs: outs[o : o+1 : o+1],
			taps:    len(ins) - start,
		})
	}
	return units
}

// packUnits packs units into MCAs with input sharing: units are added to a
// block while the union of their inputs fits the rows and their outputs fit
// the columns. When a single unit exceeds the array, its inputs split
// across time-multiplexed row chunks (one group per column chunk).
//
// inSize is the layer's input count. The block's input set is one stamp per
// input: stamp[v] == epoch marks v as already on the current block's rows,
// and bumping epoch empties the set for the next block. The MCAs' index
// lists are carved out of shared chunks (see idxArena).
func packUnits(li int, units []unit, inSize int, cfg Config, n int) LayerMapping {
	lm := LayerMapping{}
	stamp := make([]int32, inSize)
	epoch := int32(0)
	var arena idxArena
	var blockIns, blockOuts []int32
	group := 0
	i := 0
	for i < len(units) {
		epoch++
		blockIns, blockOuts = blockIns[:0], blockOuts[:0]
		taps := 0
		added := 0
		for i < len(units) {
			u := units[i]
			newIn := 0
			for _, v := range u.inputs {
				if stamp[v] != epoch {
					newIn++
				}
			}
			if added > 0 && (cfg.DisableInputSharing ||
				len(blockIns)+newIn > n || len(blockOuts)+len(u.outputs) > n) {
				break // block full
			}
			if added == 0 && (newIn > n || len(u.outputs) > n) {
				// Single unit exceeds the array: split into
				// time-multiplexed groups of row chunks, one group per
				// column chunk (a group shares one set of output neurons).
				lm.MCAs, group = splitLocation(lm.MCAs, &arena, li, group, u.inputs, u.outputs, n)
				i++
				added = -1 // mark handled
				break
			}
			for _, v := range u.inputs {
				if stamp[v] != epoch {
					stamp[v] = epoch
					blockIns = append(blockIns, v)
				}
			}
			blockOuts = append(blockOuts, u.outputs...)
			taps += u.taps
			added++
			i++
		}
		if added <= 0 {
			continue
		}
		// The block's inputs are distinct, so any sort yields one order.
		slices.Sort(blockIns)
		lm.MCAs = append(lm.MCAs, MCA{
			Layer: li, Group: group,
			Inputs: arena.copy(blockIns), Outputs: arena.copy(blockOuts), Taps: taps,
		})
		group++
	}
	lm.Groups = group
	count := make([]int, group)
	for g := range lm.MCAs {
		c := &count[lm.MCAs[g].Group]
		*c++
		if *c > lm.MuxDegree {
			lm.MuxDegree = *c
		}
	}
	return lm
}

// idxArena hands out index lists carved from shared []int32 chunks, capped
// with 3-index slices so an append by any holder copies instead of running
// into its neighbour. A layer's thousands of MCA lists cost a few chunk
// allocations instead of two or more allocations each.
type idxArena struct{ buf []int32 }

// idxArenaChunk is the arena's chunk length (64 KiB of indices).
const idxArenaChunk = 1 << 14

// copy returns a capped copy of src carved from the arena; nil when src is
// empty, as append([]int32(nil), src...) would give.
func (a *idxArena) copy(src []int32) []int32 {
	if len(src) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(src) {
		a.buf = make([]int32, 0, max(idxArenaChunk, len(src)))
	}
	lo := len(a.buf)
	a.buf = append(a.buf, src...)
	return a.buf[lo:len(a.buf):len(a.buf)]
}

// unitsOf enumerates the packing units of a sparse layer in row-major
// spatial order. Every unit's lists are carved out of two chunks sized up
// front (outputs exactly, inputs to the padding-free bound); nothing
// appends to a unit's lists afterwards.
func unitsOf(l *snn.Layer) ([]unit, error) {
	geom := l.Geom
	outShape, err := geom.OutShape()
	if err != nil {
		return nil, err
	}
	locs := outShape.H * outShape.W
	nUnits, maxIns := locs, locs*geom.K*geom.K*geom.In.C
	if l.Kind == snn.PoolLayer {
		// One unit per output neuron, each reading its own channel's window.
		nUnits, maxIns = locs*outShape.C, locs*outShape.C*geom.K*geom.K
	}
	units := make([]unit, 0, nUnits)
	ins := make([]int32, 0, maxIns)
	outs := make([]int32, 0, outShape.Size())
	pos := make([][2]int, 0, geom.K*geom.K)
	for y := 0; y < outShape.H; y++ {
		for x := 0; x < outShape.W; x++ {
			// In-bounds receptive-field positions of the location.
			pos = pos[:0]
			for ky := 0; ky < geom.K; ky++ {
				iy := y*geom.Stride + ky - geom.Pad
				if iy < 0 || iy >= geom.In.H {
					continue
				}
				for kx := 0; kx < geom.K; kx++ {
					ix := x*geom.Stride + kx - geom.Pad
					if ix < 0 || ix >= geom.In.W {
						continue
					}
					pos = append(pos, [2]int{iy, ix})
				}
			}
			if l.Kind == snn.PoolLayer {
				// One unit per output channel: its own window only.
				for c := 0; c < outShape.C; c++ {
					i0 := len(ins)
					for _, p := range pos {
						ins = append(ins, int32(geom.In.Index(p[0], p[1], c)))
					}
					o0 := len(outs)
					outs = append(outs, int32(outShape.Index(y, x, c)))
					units = append(units, unit{
						inputs:  ins[i0:len(ins):len(ins)],
						outputs: outs[o0:len(outs):len(outs)],
						taps:    len(pos),
					})
				}
				continue
			}
			// Conv: all output channels share the full receptive field.
			i0 := len(ins)
			for _, p := range pos {
				for c := 0; c < geom.In.C; c++ {
					ins = append(ins, int32(geom.In.Index(p[0], p[1], c)))
				}
			}
			o0 := len(outs)
			for c := 0; c < outShape.C; c++ {
				outs = append(outs, int32(outShape.Index(y, x, c)))
			}
			units = append(units, unit{
				inputs:  ins[i0:len(ins):len(ins)],
				outputs: outs[o0:len(outs):len(outs)],
				taps:    (len(ins) - i0) * outShape.C,
			})
		}
	}
	return units, nil
}

// splitLocation maps one output location whose receptive field (or channel
// count) exceeds a single array: inputs chunk across row blocks and outputs
// across column blocks. Each column block is its own group (a group shares
// one set of output neurons); the row blocks of that group are
// time-multiplexed onto them. It appends the MCAs, their lists copied into
// the arena, to mcas and returns it with the next free group id.
func splitLocation(mcas []MCA, arena *idxArena, li, group int, pin, pout []int32, n int) ([]MCA, int) {
	mcas = slices.Grow(mcas, ((len(pout)+n-1)/n)*((len(pin)+n-1)/n))
	for ob := 0; ob < len(pout); ob += n {
		oe := min(ob+n, len(pout))
		for ib := 0; ib < len(pin); ib += n {
			ie := min(ib+n, len(pin))
			mcas = append(mcas, MCA{
				Layer: li, Group: group,
				Inputs:  arena.copy(pin[ib:ie]),
				Outputs: arena.copy(pout[ob:oe]),
				Taps:    (ie - ib) * (oe - ob),
			})
		}
		group++
	}
	return mcas, group
}

func rangeSlice(a, b int) []int32 {
	out := make([]int32, b-a)
	for i := range out {
		out[i] = int32(a + i)
	}
	return out
}

// TotalUtilization returns taps / capacity over the whole mapping, sized
// per layer (uniform mappings reduce to the classic taps / (arrays * N²)).
func (m *Mapping) TotalUtilization() float64 {
	taps, capacity := 0, 0
	for i := range m.Layers {
		for j := range m.Layers[i].MCAs {
			taps += m.Layers[i].MCAs[j].Taps
		}
		n := m.LayerSize(i)
		capacity += len(m.Layers[i].MCAs) * n * n
	}
	if capacity == 0 {
		return 0
	}
	return float64(taps) / float64(capacity)
}

// Transport is the path a layer's input spikes take (Fig 7).
type Transport int

const (
	// Switch means the high-throughput parallel switch network inside
	// NeuroCells (Fig 7a): the layer's producers can be co-located with its
	// consumers region by region.
	Switch Transport = iota
	// Bus means serial transfer through the shared global IO bus and the
	// input SRAM (Fig 7b).
	Bus
)

func (t Transport) String() string {
	if t == Bus {
		return "bus"
	}
	return "switch"
}

// TransportOf decides how layer li receives its inputs:
//
//   - Layer 0 always loads from the input SRAM over the global bus
//     (tag-based broadcast to its NeuroCells, §3.1.3).
//   - Dense layers need every input at every column group; if the layer
//     together with its producer does not fit one NeuroCell, the data is
//     staged through the SRAM and broadcast on the bus.
//   - Pool layers and stride-aligned convolutions (K <= stride, which
//     includes 1x1 convs) have disjoint, region-aligned receptive fields:
//     with region-partitioned placement their traffic stays inside the
//     NeuroCell switch networks regardless of span (Fig 7a).
//   - Overlapping convolutions (K > stride) straddle region borders; they
//     use the bus when spanning NeuroCells, like dense layers.
func (m *Mapping) TransportOf(li int) Transport {
	var prev layerPos
	if li > 0 {
		prev = m.Layers[li-1].pos()
	}
	return transportOf(li, m.Layers[li].Layer, prev, m.Layers[li].pos())
}

// transportOf is the TransportOf rule for layer li (network layer l) placed
// at cur, its producer placed at prev (ignored for layer 0). The mapper's
// cost model applies it to candidate positions.
func transportOf(li int, l *snn.Layer, prev, cur layerPos) Transport {
	if li == 0 {
		return Bus
	}
	switch l.Kind {
	case snn.PoolLayer:
		return Switch
	case snn.ConvLayer:
		if l.Geom.K <= l.Geom.Stride {
			return Switch
		}
	}
	if cur.ncFirst != cur.ncLast || prev.ncFirst != prev.ncLast {
		return Bus
	}
	if cur.ncFirst != prev.ncFirst {
		return Bus
	}
	return Switch
}

// layerPos is a layer's position on the chip: its mPE and NeuroCell spans.
type layerPos struct {
	mpeFirst, mpeSpan int
	ncFirst, ncLast   int
}

// pos returns the placed layer's position.
func (lm *LayerMapping) pos() layerPos {
	return layerPos{
		mpeFirst: lm.MPEFirst, mpeSpan: lm.MPELast - lm.MPEFirst + 1,
		ncFirst: lm.NCFirst, ncLast: lm.NCLast,
	}
}

// CrossNC reports whether layer li receives its inputs over the global IO
// bus; see TransportOf.
func (m *Mapping) CrossNC(li int) bool { return m.TransportOf(li) == Bus }

// Validate checks the structural invariants of a mapping: every MCA within
// array bounds, groups sharing identical output lists, every layer output
// covered by at least one MCA, placements monotone and within the chip.
// Returns nil for a well-formed mapping; Map always produces one, so this
// is chiefly a guard for hand-constructed or mutated mappings.
func (m *Mapping) Validate() error {
	prevMPE := -1
	for li := range m.Layers {
		lm := &m.Layers[li]
		n := m.LayerSize(li)
		if lm.MPEFirst <= prevMPE {
			return fmt.Errorf("mapping: layer %d placement overlaps the previous layer", li)
		}
		prevMPE = lm.MPELast
		groupOuts := map[int]string{}
		covered := map[int32]bool{}
		for ai := range lm.MCAs {
			a := &lm.MCAs[ai]
			if len(a.Inputs) == 0 || len(a.Inputs) > n || len(a.Outputs) == 0 || len(a.Outputs) > n {
				return fmt.Errorf("mapping: layer %d MCA %d violates the %dx%d array", li, ai, n, n)
			}
			if a.Taps < 0 || a.Taps > len(a.Inputs)*len(a.Outputs) {
				return fmt.Errorf("mapping: layer %d MCA %d has %d taps for %dx%d", li, ai, a.Taps, len(a.Inputs), len(a.Outputs))
			}
			if (a.MPE < lm.MPEFirst || a.MPE > lm.MPELast) && !m.inSpareRegion(a.MPE) {
				return fmt.Errorf("mapping: layer %d MCA %d placed at mPE %d outside [%d,%d] and the spare pool",
					li, ai, a.MPE, lm.MPEFirst, lm.MPELast)
			}
			key := fmt.Sprint(a.Outputs)
			if prev, ok := groupOuts[a.Group]; ok && prev != key {
				return fmt.Errorf("mapping: layer %d group %d has inconsistent outputs", li, a.Group)
			}
			groupOuts[a.Group] = key
			for _, o := range a.Outputs {
				if int(o) < 0 || int(o) >= lm.Layer.OutSize() {
					return fmt.Errorf("mapping: layer %d output %d out of range", li, o)
				}
				covered[o] = true
			}
			for _, in := range a.Inputs {
				if int(in) < 0 || int(in) >= lm.Layer.InSize() {
					return fmt.Errorf("mapping: layer %d input %d out of range", li, in)
				}
			}
		}
		if len(covered) != lm.Layer.OutSize() {
			return fmt.Errorf("mapping: layer %d covers %d of %d outputs", li, len(covered), lm.Layer.OutSize())
		}
	}
	if m.MPEs > m.NCs*m.Cfg.MPEsPerNC {
		return fmt.Errorf("mapping: %d mPEs exceed %d NeuroCells", m.MPEs, m.NCs)
	}
	return nil
}

// ProgramCost estimates the one-off configuration cost of writing every
// mapped synapse into its crossbar with the mapping's technology: energy is
// per-device write-verify pulses over all taps; time assumes MCAs program
// in parallel, rows within an MCA sequentially (one row of devices is
// written concurrently per pulse train).
func (m *Mapping) ProgramCost() (energyJ, timeS float64) {
	tech := m.Cfg.Tech
	pulses := float64(tech.WritePulsesPerDevice())
	maxRows := 0
	taps := 0
	for li := range m.Layers {
		for ai := range m.Layers[li].MCAs {
			a := &m.Layers[li].MCAs[ai]
			taps += a.Taps
			if r := len(a.Inputs); r > maxRows {
				maxRows = r
			}
		}
	}
	energyJ = float64(taps) * pulses * tech.WritePulseEnergy
	timeS = float64(maxRows) * pulses * tech.WritePulseTime
	return energyJ, timeS
}

// Switches returns the number of programmable switches available to the
// layer's packet traffic: 9 per NeuroCell spanned (Fig 8's 4x4 cell has 9
// switches); non-standard cell sizes scale as d*d/2+1.
func (lm *LayerMapping) Switches(cfg Config) int {
	return cfg.switches(lm.NCLast - lm.NCFirst + 1)
}

// switches is the switch count of a layer spanning ncs NeuroCells.
func (cfg Config) switches(ncs int) int {
	per := 9
	if cfg.MPEsPerNC != 16 {
		per = cfg.MPEsPerNC/2 + 1
	}
	return ncs * per
}
