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
	"math/bits"
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
	// W or of the fixed geometry, so a duplicate concurrent build is
	// benign: every builder produces bit-identical content and the last
	// Store wins. Code that mutates W after construction — fault
	// injection, in-place repair — must call InvalidateWeightCaches so the
	// one weight-derived layout (pan) is rebuilt; cp and fo depend only on
	// geometry and survive weight mutation.
	pan atomic.Pointer[panelCache]  // W packed into 8-row panels (see panelW)
	cp  atomic.Pointer[convPlan]    // conv valid-tap ranges (see convPlan)
	fo  atomic.Pointer[fanOutCache] // conv/pool per-input fan-out (see fanOut)
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

// groupImages is the group size of the networks whose dense weights
// dominate (see GroupSize). Measured on the Fig 10 MLPs (48-step blocks, one
// thread, 2 MB L2): dense-layer time per image fell about 19% from one
// image to four, and eight were no faster than four.
const groupImages = 4

// GroupSize is how many images a worker runs in lockstep (RunGroup). It is
// groupImages when the packed weight panels of the network's no-leak dense
// layers outweigh that many States: streaming each panel once per group
// instead of once per image then saves more memory traffic than the extra
// States cost (the Fig 10 MLPs hold 15-30 MB of panels against States of
// about 0.05 MB). Otherwise it is 1 (the Fig 10 CNNs: at most 3.4 MB of
// dense panels against 1-4 MB States), where a group would multiply State
// memory for little weight reuse.
func (n *Network) GroupSize() int {
	panels := 0
	for _, l := range n.Layers {
		if l.Kind == DenseLayer && l.Leak == 0 {
			panels += (l.W.Rows + panelLanes - 1) / panelLanes * panelLanes * l.W.Cols * 8
		}
	}
	// A State holds a float64 potential per neuron and a block raster of
	// DefaultBlockSize bits per neuron, input included.
	state := 8*n.HiddenNeurons() + n.Neurons()*DefaultBlockSize/8
	if panels > groupImages*state {
		return groupImages
	}
	return 1
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
// drives in this layer (dense: every output; conv/pool: from the closed-form
// fan-out table, see fanOut). The event-driven CMOS baseline uses it to
// count synaptic operations per input spike.
func (l *Layer) FanOut(in int) int {
	if in < 0 || in >= l.InSize() {
		return 0
	}
	if l.Kind == DenseLayer {
		return l.OutSize()
	}
	return int(l.fanOut()[in])
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

// panelCache wraps the packed panel slice so it can live behind an
// atomic.Pointer (a slice header is not directly atomically storable).
type panelCache struct{ w []float64 }

// panelLanes is the row-group width of the packed panel layout: the blocked
// dense kernel advances this many output neurons per spike, and packing puts
// their weights for one input side by side (8 float64 = one cache line).
const panelLanes = 8

// quadGroups is the number of consecutive panels blockQuad integrates per
// pass over a spike list.
const quadGroups = 4

// panelW returns the layer's weight matrix packed into 8-row panels:
// pan[g*cols*8 + i*8 + lane] = W[8g+lane][i]. The blocked kernel reads the
// eight weights of one input spike as a single contiguous cache line with
// constant displacements instead of gathering from eight distant rows (which
// costs eight slice headers and spills them off the register file). The
// last group of a row count that is not a multiple of eight is packed with
// its unused lanes zeroed, so every row runs through the panel kernels.
// Safe for concurrent first use.
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
	groups := (l.W.Rows + panelLanes - 1) / panelLanes
	pan := make([]float64, groups*cols*panelLanes)
	for g := 0; g < groups; g++ {
		block := pan[g*cols*panelLanes:]
		for lane := 0; lane < min(panelLanes, l.W.Rows-g*panelLanes); lane++ {
			row := l.W.Row((g*panelLanes + lane))
			for i, x := range row {
				block[i*panelLanes+lane] = x
			}
		}
	}
	l.pan.Store(&panelCache{w: pan})
	return pan
}

// InvalidateWeightCaches drops the layer's one weight-derived simulation
// layout (the packed panels) so the next integration rebuilds it from the
// current W. It must be called after any in-place mutation of W — fault
// injection or crossbar repair — or evaluation keeps reading the stale
// panels. The conv tap plan and the fan-out table depend only on geometry
// and are deliberately kept.
//
// The caller is responsible for quiescence: invalidate while no evaluation
// over this layer is in flight (the serving integration takes the model's
// repair write-lock for exactly this reason). Concurrent rebuilds after the
// invalidation are safe.
func (l *Layer) InvalidateWeightCaches() {
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

// fanOutCache wraps the fan-out table so it can live behind an
// atomic.Pointer.
type fanOutCache struct{ n []int32 }

// fanOut returns the lazily built per-input fan-out of a conv or pool
// layer: entry i is the number of output neurons whose receptive field
// covers input i. Output rows and columns cover inputs independently, so
// for an input at (iy, ix) the entry is countY[iy] * countX[ix] times the
// channels it feeds (OutC for conv, its own channel for pool), where
// countY[iy] counts the output rows whose window spans row iy. The table
// depends only on geometry. Safe for concurrent first use.
func (l *Layer) fanOut() []int32 {
	if t := l.fo.Load(); t != nil {
		return t.n
	}
	g := l.Geom
	cover := func(in, out int) []int32 {
		c := make([]int32, in)
		for o := 0; o < out; o++ {
			for k := 0; k < g.K; k++ {
				if i := o*g.Stride - g.Pad + k; i >= 0 && i < in {
					c[i]++
				}
			}
		}
		return c
	}
	countY, countX := cover(g.In.H, l.Out.H), cover(g.In.W, l.Out.W)
	chans := int32(l.Out.C)
	if l.Kind == PoolLayer {
		chans = 1
	}
	n := make([]int32, 0, l.InSize())
	for _, cy := range countY {
		for _, cx := range countX {
			f := cy * cx * chans
			for ic := 0; ic < g.In.C; ic++ {
				n = append(n, f)
			}
		}
	}
	l.fo.Store(&fanOutCache{n: n})
	return n
}

// ActiveSynOps returns the number of synaptic accumulations an event-driven
// pass over the layer performs for the given input spike vector — the hot
// counter of the CMOS baseline model: the summed fan-out of every spiking
// input.
func (l *Layer) ActiveSynOps(in *bitvec.Bits) int {
	if l.Kind == DenseLayer {
		return in.Count() * l.OutSize()
	}
	fo := l.fanOut()
	ops := 0
	for wi, w := range in.Words() {
		base := wi << 6
		for w != 0 {
			ops += int(fo[base+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return ops
}
