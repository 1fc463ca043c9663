package snn

import (
	"fmt"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// oracle is the original step-major functional runner, kept as a test-only
// reference for the blocked kernels. Each timestep it visits every layer in
// turn: leak, integrate every input spike (dense layers stream one W^T row
// per spike, conv and pool layers walk a CSR input->output adjacency with
// resolved per-tap weights), then threshold and reset. It shares no code or
// cache with the production kernels: its layouts are built from the current
// W when the oracle is constructed.
type oracle struct {
	net    *Network
	vmem   []tensor.Vec
	spikes []*bitvec.Bits
	input  *bitvec.Bits
	adj    []*adjacency  // per layer; conv and pool only
	wT     []*tensor.Mat // per layer; dense only
	idx    []int32
}

func newOracle(net *Network) *oracle {
	o := &oracle{
		net:    net,
		vmem:   make([]tensor.Vec, len(net.Layers)),
		spikes: make([]*bitvec.Bits, len(net.Layers)),
		input:  bitvec.New(net.Input.Size()),
		adj:    make([]*adjacency, len(net.Layers)),
		wT:     make([]*tensor.Mat, len(net.Layers)),
	}
	for i, l := range net.Layers {
		o.vmem[i] = tensor.NewVec(l.OutSize())
		o.spikes[i] = bitvec.New(l.OutSize())
		if l.Kind == DenseLayer {
			o.wT[i] = l.W.Transpose()
		} else {
			o.adj[i] = makeAdjacency(l)
		}
	}
	return o
}

// step advances the network by one timestep and returns the final layer's
// spikes (the input layer's for an empty network).
func (o *oracle) step(in *bitvec.Bits) *bitvec.Bits {
	o.input.CopyFrom(in)
	cur := o.input
	for li, l := range o.net.Layers {
		v := o.vmem[li]
		if l.Leak > 0 {
			v.Scale(1 - l.Leak)
		}
		o.idx = cur.AppendSet(o.idx[:0])
		if wt := o.wT[li]; wt != nil {
			for _, i := range o.idx {
				wt.AddRow(int(i), v)
			}
		} else {
			adj := o.adj[li]
			for _, i := range o.idx {
				for p := adj.start[i]; p < adj.start[i+1]; p++ {
					v[adj.out[p]] += adj.wval[p]
				}
			}
		}
		out := o.spikes[li]
		out.Reset()
		for i, p := range v {
			if p >= l.Threshold {
				out.Set(i)
				if l.HardReset {
					v[i] = 0
				} else {
					v[i] = p - l.Threshold
				}
			}
		}
		cur = out
	}
	return cur
}

// OracleRun classifies one input through the test-only step-major CSR
// oracle: encode, step, observe and count, one timestep at a time. Besides
// the RunResult (which owns its slices) it returns the oracle's last-step
// input and per-layer spike views, the counterparts of State.InputSpikes and
// State.LayerSpikes after a run, and its final membrane potentials (State.Vmem).
func OracleRun(net *Network, intensity tensor.Vec, enc Encoder, steps int, obs Observer) (RunResult, *bitvec.Bits, []*bitvec.Bits, []tensor.Vec) {
	o := newOracle(net)
	counts := make([]int, net.OutSize())
	first := make([]int, net.OutSize())
	for i := range first {
		first[i] = -1
	}
	in := bitvec.New(net.Input.Size())
	inputSpikes := 0
	for t := 0; t < steps; t++ {
		enc.Encode(intensity, in)
		inputSpikes += in.Count()
		out := o.step(in)
		if obs != nil {
			obs.ObserveStep(t, o.input, o.spikes)
		}
		out.ForEachSet(func(i int) {
			counts[i]++
			if first[i] < 0 {
				first[i] = t
			}
		})
	}
	best, bestN := 0, -1
	for i, c := range counts {
		if c > bestN {
			best, bestN = i, c
		}
	}
	return RunResult{Steps: steps, OutCounts: counts, Prediction: best, InputSpikes: inputSpikes, FirstSpike: first},
		o.input, o.spikes, o.vmem
}

// OracleFanOut returns, per input neuron of a conv or pool layer, the row
// length of the oracle's CSR adjacency: the number of output neurons that
// input drives.
func OracleFanOut(l *Layer) []int32 {
	adj := makeAdjacency(l)
	n := make([]int32, l.InSize())
	for i := range n {
		n[i] = adj.start[i+1] - adj.start[i]
	}
	return n
}

// adjacency is a CSR input->output tap index: for each presynaptic neuron,
// the list of (postsynaptic neuron, kernel index, weight) taps.
type adjacency struct {
	start []int32   // len InSize+1
	out   []int32   // postsynaptic flat index
	kidx  []int32   // kernel weight index
	wval  []float64 // resolved synaptic weight per tap
}

// makeAdjacency builds the CSR index of a conv or pool layer from the shared
// ConvGeom walker.
func makeAdjacency(l *Layer) *adjacency {
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
		panic(fmt.Sprintf("snn oracle: %v", err))
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
