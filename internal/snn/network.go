// Package snn implements the spiking-neural-network model that RESPARC
// accelerates: multi-layer topologies of Integrate-and-Fire (IF) neurons
// with dense (MLP) or convolutional (CNN) connectivity, Poisson rate
// encoding of inputs, time-stepped functional simulation, and conversion
// from conventionally trained ANNs via weight/threshold balancing (the
// paper's reference [4], Diehl et al. 2015).
//
// The functional model here is the golden reference: the architecture
// simulators in internal/mpe, internal/neurocell and internal/core consume
// the spike trains it produces and are tested against it.
package snn

import (
	"fmt"
	"strings"
	"sync/atomic"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// LayerKind distinguishes the connectivity structure of a layer.
type LayerKind int

const (
	// DenseLayer is all-to-all connectivity (MLP layers, CNN classifiers).
	DenseLayer LayerKind = iota
	// ConvLayer is weight-shared local connectivity.
	ConvLayer
	// PoolLayer is K x K average pooling (sub-sampling), a fixed-weight
	// sparse linear layer.
	PoolLayer
)

func (k LayerKind) String() string {
	switch k {
	case DenseLayer:
		return "dense"
	case ConvLayer:
		return "conv"
	case PoolLayer:
		return "pool"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Layer is one SNN layer: a connectivity matrix feeding a population of
// spiking neurons with a common firing threshold.
type Layer struct {
	Kind LayerKind
	Name string
	In   tensor.Shape3
	Out  tensor.Shape3
	// Geom is set for ConvLayer and PoolLayer.
	Geom tensor.ConvGeom
	// W holds the weights: Dense = Out.Size() x In.Size(); Conv = OutC x
	// (K*K*InC) shared kernels; Pool = nil (fixed weight 1/K*K).
	W *tensor.Mat
	// Threshold is the firing threshold of every neuron in the layer.
	Threshold float64
	// Leak is the per-timestep membrane decay factor in [0, 1): 0 gives the
	// pure Integrate-and-Fire neuron the paper evaluates; a positive value
	// gives Leaky-Integrate-and-Fire (v <- v*(1-Leak) before integration).
	// The paper notes any spiking neuron model can be interfaced with the
	// MCA (§3.1.1); the architecture simulators are agnostic to it.
	Leak float64
	// HardReset resets a fired neuron's potential to zero instead of
	// subtracting the threshold. Reset-by-subtraction (the default)
	// preserves rate codes through deep converted stacks; hard reset is the
	// variant used by some trained-from-scratch SNNs.
	HardReset bool

	// Lazily built simulation caches behind atomic pointers, so the hot
	// path stays lock-free and concurrent first use from parallel
	// evaluation workers is safe. Each cached layout is a pure function of
	// W (and the fixed geometry), so a duplicate concurrent build is
	// benign: every builder produces bit-identical content and the last
	// Store wins. Code that mutates W after construction — fault
	// injection, in-place repair — must call InvalidateWeightCaches so the
	// weight-derived layouts (adj, wT, pan) are rebuilt; cp depends only
	// on geometry and survives weight mutation.
	adj atomic.Pointer[adjacency]  // input->output adjacency for event-driven sim
	wT  atomic.Pointer[tensor.Mat] // dense W^T: one contiguous row per input neuron
	pan atomic.Pointer[panelCache] // W packed into 8-row panels (see panelW)
	cp  atomic.Pointer[convPlan]   // conv valid-tap ranges (see convPlan)
}

// InSize returns the flattened input length.
func (l *Layer) InSize() int { return l.In.Size() }

// OutSize returns the number of neurons in the layer.
func (l *Layer) OutSize() int { return l.Out.Size() }

// FanIn returns the number of synapses feeding one neuron of the layer.
func (l *Layer) FanIn() int {
	switch l.Kind {
	case DenseLayer:
		return l.In.Size()
	case ConvLayer:
		return l.Geom.FanIn()
	case PoolLayer:
		return l.Geom.K * l.Geom.K
	default:
		panic("snn: unknown layer kind")
	}
}

// Synapses returns the connection count of the layer using the paper's
// Fig 10 convention: every (output neuron, input tap) pair counts once,
// including shared conv weights at each output location.
func (l *Layer) Synapses() int {
	switch l.Kind {
	case DenseLayer:
		return l.In.Size() * l.Out.Size()
	case ConvLayer:
		n, err := l.Geom.Connections()
		if err != nil {
			panic("snn: " + err.Error())
		}
		return n
	case PoolLayer:
		return l.Out.Size() * l.Geom.K * l.Geom.K
	default:
		panic("snn: unknown layer kind")
	}
}

// PoolWeight is the fixed synaptic weight of pooling taps.
func (l *Layer) PoolWeight() float64 {
	return 1.0 / float64(l.Geom.K*l.Geom.K)
}

// NewDense returns a dense layer with the given Out x In weight matrix.
func NewDense(name string, in, out int, w *tensor.Mat, threshold float64) (*Layer, error) {
	if w == nil || w.Rows != out || w.Cols != in {
		return nil, fmt.Errorf("snn: dense %q wants %dx%d weights", name, out, in)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("snn: dense %q threshold %v must be positive", name, threshold)
	}
	return &Layer{
		Kind: DenseLayer, Name: name,
		In:  tensor.Shape3{H: 1, W: 1, C: in},
		Out: tensor.Shape3{H: 1, W: 1, C: out},
		W:   w, Threshold: threshold,
	}, nil
}

// NewConv returns a convolution layer with shared kernels (OutC x K*K*InC).
func NewConv(name string, geom tensor.ConvGeom, w *tensor.Mat, threshold float64) (*Layer, error) {
	out, err := geom.OutShape()
	if err != nil {
		return nil, fmt.Errorf("snn: conv %q: %w", name, err)
	}
	if w == nil || w.Rows != geom.OutC || w.Cols != geom.FanIn() {
		return nil, fmt.Errorf("snn: conv %q wants %dx%d weights", name, geom.OutC, geom.FanIn())
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("snn: conv %q threshold %v must be positive", name, threshold)
	}
	return &Layer{Kind: ConvLayer, Name: name, In: geom.In, Out: out, Geom: geom, W: w, Threshold: threshold}, nil
}

// NewPool returns a K x K average-pooling layer. Pooled IF neurons fire when
// enough window inputs spiked; threshold is typically just under 1 pool
// weight times K*K/2 — callers choose.
func NewPool(name string, in tensor.Shape3, k int, threshold float64) (*Layer, error) {
	geom := tensor.ConvGeom{In: in, K: k, Stride: k, Pad: 0, OutC: in.C}
	out, err := geom.OutShape()
	if err != nil {
		return nil, fmt.Errorf("snn: pool %q: %w", name, err)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("snn: pool %q threshold %v must be positive", name, threshold)
	}
	return &Layer{Kind: PoolLayer, Name: name, In: in, Out: out, Geom: geom, Threshold: threshold}, nil
}

// Network is an ordered stack of SNN layers.
type Network struct {
	Name   string
	Input  tensor.Shape3
	Layers []*Layer
}

// NewNetwork validates inter-layer shape agreement.
func NewNetwork(name string, input tensor.Shape3, layers ...*Layer) (*Network, error) {
	size := input.Size()
	for i, l := range layers {
		if l.InSize() != size {
			return nil, fmt.Errorf("snn: %s layer %d (%s) expects %d inputs, previous produces %d",
				name, i, l.Name, l.InSize(), size)
		}
		size = l.OutSize()
	}
	return &Network{Name: name, Input: input, Layers: layers}, nil
}

// Neurons returns the total neuron count: input neurons plus every layer's
// population (the counting convention of Fig 10).
func (n *Network) Neurons() int {
	total := n.Input.Size()
	for _, l := range n.Layers {
		total += l.OutSize()
	}
	return total
}

// HiddenNeurons returns the neuron count excluding the input layer.
func (n *Network) HiddenNeurons() int { return n.Neurons() - n.Input.Size() }

// Synapses returns the total connection count across layers.
func (n *Network) Synapses() int {
	total := 0
	for _, l := range n.Layers {
		total += l.Synapses()
	}
	return total
}

// OutSize returns the size of the final layer (the class count for
// classifiers).
func (n *Network) OutSize() int {
	if len(n.Layers) == 0 {
		return n.Input.Size()
	}
	return n.Layers[len(n.Layers)-1].OutSize()
}

// Summary returns a human-readable multi-line description of the network:
// one line per layer with kind, shapes, synapses and threshold.
func (n *Network) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: input %s, %d neurons, %d synapses\n",
		n.Name, n.Input, n.HiddenNeurons(), n.Synapses())
	for i, l := range n.Layers {
		fmt.Fprintf(&sb, "  %2d %-5s %-20s %s -> %s  syn=%d th=%.3g",
			i, l.Kind, l.Name, l.In, l.Out, l.Synapses(), l.Threshold)
		if l.Leak > 0 {
			fmt.Fprintf(&sb, " leak=%.2g", l.Leak)
		}
		if l.HardReset {
			sb.WriteString(" hard-reset")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FanOut returns how many postsynaptic neurons the presynaptic neuron in
// drives in this layer (dense: every output; conv/pool: from the adjacency
// index). The event-driven CMOS baseline uses it to count synaptic
// operations per input spike.
func (l *Layer) FanOut(in int) int {
	if in < 0 || in >= l.InSize() {
		return 0
	}
	if l.Kind == DenseLayer {
		return l.OutSize()
	}
	adj := l.buildAdjacency()
	return int(adj.start[in+1] - adj.start[in])
}

// Weight returns the synaptic weight between flat postsynaptic index out
// and flat presynaptic index in, and whether the connection exists. Used by
// the mPE programmer to fill crossbar cross-points.
func (l *Layer) Weight(out, in int) (float64, bool) {
	if out < 0 || out >= l.OutSize() || in < 0 || in >= l.InSize() {
		return 0, false
	}
	switch l.Kind {
	case DenseLayer:
		return l.W.At(out, in), true
	case ConvLayer, PoolLayer:
		// Invert the geometry: out = (oy, ox, oc), in = (iy, ix, ic).
		g := l.Geom
		oc := out % l.Out.C
		oxy := out / l.Out.C
		oy, ox := oxy/l.Out.W, oxy%l.Out.W
		ic := in % g.In.C
		ixy := in / g.In.C
		iy, ix := ixy/g.In.W, ixy%g.In.W
		ky := iy - oy*g.Stride + g.Pad
		kx := ix - ox*g.Stride + g.Pad
		if ky < 0 || ky >= g.K || kx < 0 || kx >= g.K {
			return 0, false
		}
		if l.Kind == PoolLayer {
			if ic != oc {
				return 0, false
			}
			return l.PoolWeight(), true
		}
		return l.W.At(oc, (ky*g.K+kx)*g.In.C+ic), true
	default:
		panic("snn: unknown layer kind")
	}
}

// adjacency is a CSR-like input->output tap index enabling event-driven
// propagation: for each presynaptic neuron, the list of (postsynaptic
// neuron, weight) pairs. Weights are resolved at build time into wval so
// the per-spike inner loop is a pure contiguous accumulate with no index
// arithmetic or matrix lookups.
type adjacency struct {
	start []int32   // len InSize+1
	out   []int32   // postsynaptic flat index
	kidx  []int32   // kernel weight index (conv/pool); -1 semantics unused for dense
	wval  []float64 // resolved synaptic weight per tap
}

// buildAdjacency constructs the event-driven index. Dense layers do not
// need one (they use the transposed-weight cache instead); conv and pool
// layers get a flat CSR built from the shared ConvGeom walker. Safe for
// concurrent first use.
func (l *Layer) buildAdjacency() *adjacency {
	if a := l.adj.Load(); a != nil {
		return a
	}
	a := l.makeAdjacency()
	l.adj.Store(a)
	return a
}

func (l *Layer) makeAdjacency() *adjacency {
	// Pool layers connect same-channel only; the geometry walker enumerates
	// every channel combination, so filter the cross-channel taps out.
	keep := func(outIdx, inIdx int) bool {
		if inIdx < 0 {
			return false
		}
		if l.Kind == PoolLayer {
			return inIdx%l.In.C == outIdx%l.Out.C
		}
		return true
	}
	counts := make([]int32, l.InSize()+1)
	err := l.Geom.ForEachTap(func(outIdx, inIdx, _ int) {
		if keep(outIdx, inIdx) {
			counts[inIdx+1]++
		}
	})
	if err != nil {
		panic("snn: " + err.Error())
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	total := counts[len(counts)-1]
	adj := &adjacency{
		start: counts,
		out:   make([]int32, total),
		kidx:  make([]int32, total),
		wval:  make([]float64, total),
	}
	cursor := make([]int32, l.InSize())
	copy(cursor, counts[:l.InSize()])
	pw := l.PoolWeight()
	_ = l.Geom.ForEachTap(func(outIdx, inIdx, kIdx int) {
		if !keep(outIdx, inIdx) {
			return
		}
		p := cursor[inIdx]
		adj.out[p] = int32(outIdx)
		adj.kidx[p] = int32(kIdx)
		if l.Kind == PoolLayer {
			adj.wval[p] = pw
		} else {
			adj.wval[p] = l.W.At(outIdx%l.Out.C, kIdx)
		}
		cursor[inIdx] = p + 1
	})
	return adj
}

// transposedW returns the lazily built W^T of a dense layer: row i holds the
// weights every output neuron receives from input i, contiguously. It turns
// the event-driven dense integration from a stride-Cols column walk into a
// streaming row accumulation per input spike. Safe for concurrent first use.
func (l *Layer) transposedW() *tensor.Mat {
	if t := l.wT.Load(); t != nil {
		return t
	}
	t := l.W.Transpose()
	l.wT.Store(t)
	return t
}

// panelCache wraps the packed panel slice so it can live behind an
// atomic.Pointer (a slice header is not directly atomically storable).
type panelCache struct{ w []float64 }

// panelLanes is the row-group width of the packed panel layout: the blocked
// dense kernel advances this many output neurons per spike, and packing puts
// their weights for one input side by side (8 float64 = one cache line).
const panelLanes = 8

// panelW returns the layer's weight matrix packed into 8-row panels:
// pan[g*cols*8 + i*8 + lane] = W[8g+lane][i]. The blocked kernel reads the
// eight weights of one input spike as a single contiguous cache line with
// constant displacements instead of gathering from eight distant rows (which
// costs eight slice headers and spills them off the register file). Only
// full groups of eight rows are packed; the remainder rows (< 8) fall back
// to the row-major W. Safe for concurrent first use.
//
// For dense layers the rows are output neurons and the columns input
// neurons; for conv layers the same packing applies verbatim to the shared
// OutC x FanIn kernel matrix — a panel groups 8 output channels and a
// "column" is one kernel tap index, so one accumPanel call integrates a
// spiking tap into 8 feature maps at once. Never called for pool layers
// (W == nil).
func (l *Layer) panelW() []float64 {
	if p := l.pan.Load(); p != nil {
		return p.w
	}
	cols := l.W.Cols
	groups := l.W.Rows / panelLanes
	pan := make([]float64, groups*cols*panelLanes)
	for g := 0; g < groups; g++ {
		block := pan[g*cols*panelLanes:]
		for lane := 0; lane < panelLanes; lane++ {
			row := l.W.Row((g*panelLanes + lane))
			for i, x := range row {
				block[i*panelLanes+lane] = x
			}
		}
	}
	l.pan.Store(&panelCache{w: pan})
	return pan
}

// InvalidateWeightCaches drops the layer's weight-derived simulation
// layouts (event adjacency, transposed weights, packed panels) so the next
// integration rebuilds them from the current W. It must be called after any
// in-place mutation of W — fault injection or crossbar repair — or stepped
// and blocked evaluation keep reading the stale layouts. The conv tap plan
// depends only on geometry and is deliberately kept.
//
// The caller is responsible for quiescence: invalidate while no evaluation
// over this layer is in flight (the serving integration takes the model's
// repair write-lock for exactly this reason). Concurrent rebuilds after the
// invalidation are safe.
func (l *Layer) InvalidateWeightCaches() {
	l.adj.Store(nil)
	l.wT.Store(nil)
	l.pan.Store(nil)
}

// InvalidateWeightCaches invalidates the weight-derived caches of every
// layer. See Layer.InvalidateWeightCaches.
func (n *Network) InvalidateWeightCaches() {
	for _, l := range n.Layers {
		l.InvalidateWeightCaches()
	}
}

// convPlan caches, per conv output row/column, the range of kernel
// rows/columns whose taps land inside the input volume — everything outside
// is zero padding and contributes nothing. With it, the conv block kernel
// enumerates exactly the valid taps of a receptive field with no per-tap
// bounds checks: for output row oy, ky ranges over [kyLo[oy], kyHi[oy]),
// and likewise kx over [kxLo[ox], kxHi[ox]).
type convPlan struct {
	kyLo, kyHi []int
	kxLo, kxHi []int
}

// convPlan returns the lazily built valid-tap plan of a conv layer. Safe
// for concurrent first use.
func (l *Layer) convPlan() *convPlan {
	if p := l.cp.Load(); p != nil {
		return p
	}
	p := l.makeConvPlan()
	l.cp.Store(p)
	return p
}

func (l *Layer) makeConvPlan() *convPlan {
	g := l.Geom
	clampRange := func(o, in int) (int, int) {
		lo, hi := 0, g.K
		i0 := o*g.Stride - g.Pad
		if i0 < 0 {
			lo = -i0
		}
		if i0+g.K > in {
			hi = in - i0
		}
		if hi < lo {
			hi = lo
		}
		return lo, hi
	}
	p := &convPlan{
		kyLo: make([]int, l.Out.H), kyHi: make([]int, l.Out.H),
		kxLo: make([]int, l.Out.W), kxHi: make([]int, l.Out.W),
	}
	for oy := 0; oy < l.Out.H; oy++ {
		p.kyLo[oy], p.kyHi[oy] = clampRange(oy, g.In.H)
	}
	for ox := 0; ox < l.Out.W; ox++ {
		p.kxLo[ox], p.kxHi[ox] = clampRange(ox, g.In.W)
	}
	return p
}

// ActiveSynOps returns the number of synaptic accumulations an event-driven
// pass over the layer performs for the given input spike vector — the hot
// counter of the CMOS baseline model. The adjacency lookup is hoisted out of
// the per-spike loop.
func (l *Layer) ActiveSynOps(in *bitvec.Bits) int {
	if l.Kind == DenseLayer {
		return in.Count() * l.OutSize()
	}
	adj := l.buildAdjacency()
	ops := 0
	in.ForEachSet(func(i int) {
		ops += int(adj.start[i+1] - adj.start[i])
	})
	return ops
}
