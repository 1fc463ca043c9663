package snn

import (
	"fmt"

	"resparc/internal/ann"
	"resparc/internal/dataset"
	"resparc/internal/tensor"
)

// FromANN converts a trained ANN into a spiking network using the
// weight/threshold balancing method of Diehl et al. (the paper's reference
// [4]): every ReLU layer's weights are rescaled by the ratio of the previous
// and current layers' maximum observed activations, so that each IF layer
// can use a unit threshold while preserving the ANN's relative activations
// as spike rates.
//
// calib supplies calibration inputs (a modest sample of the training set is
// enough). The returned network owns fresh weight copies; the ANN is not
// modified.
func FromANN(name string, n *ann.Network, calib *dataset.Set) (*Network, error) {
	if len(n.Layers) == 0 {
		return nil, fmt.Errorf("snn: cannot convert empty network")
	}
	maxAct := calibrate(n, calib)
	layers := make([]*Layer, 0, len(n.Layers))
	prevScale := 1.0
	for i, al := range n.Layers {
		scale := maxAct[i]
		if scale <= 0 {
			scale = 1 // dead layer; keep weights as-is
		}
		switch l := al.(type) {
		case *ann.Dense:
			w := l.W.Clone()
			// w' = w * prevScale / scale, threshold 1.
			factor := prevScale / scale
			w.Data.Scale(factor)
			sl, err := NewDense(fmt.Sprintf("%s/dense%d", name, i), l.InSize(), l.OutSize(), w, 1)
			if err != nil {
				return nil, err
			}
			// Preserve the volume shapes for conv-successor layers.
			sl.In = layerInShape(n, i)
			sl.Out = layerOutShape(n, i)
			layers = append(layers, sl)
		case *ann.Conv:
			w := l.W.Clone()
			factor := prevScale / scale
			w.Data.Scale(factor)
			sl, err := NewConv(fmt.Sprintf("%s/conv%d", name, i), l.Geom, w, 1)
			if err != nil {
				return nil, err
			}
			layers = append(layers, sl)
		case *ann.AvgPool:
			// Pooling passes activations through unscaled; its "max
			// activation" equals the input scale, so propagate prevScale.
			sl, err := NewPool(fmt.Sprintf("%s/pool%d", name, i), l.Geom.In, l.Geom.K, poolThreshold(l.Geom.K))
			if err != nil {
				return nil, err
			}
			layers = append(layers, sl)
			scale = prevScale
		default:
			return nil, fmt.Errorf("snn: cannot convert layer %d (%T)", i, al)
		}
		prevScale = scale
	}
	return NewNetwork(name, n.Input, layers...)
}

// poolThreshold fires a pooled IF neuron once roughly half its window
// spiked; with weight 1/K² that is just under 0.5 to avoid systematic rate
// loss in converted networks.
func poolThreshold(k int) float64 { return 0.499 }

// calibrate runs the ANN over the calibration set and records the maximum
// post-activation value of every layer. Pooling layers inherit their input
// scale (they are linear with unit gain over rates).
func calibrate(n *ann.Network, calib *dataset.Set) []float64 {
	maxAct := make([]float64, len(n.Layers))
	if calib == nil || len(calib.Samples) == 0 {
		for i := range maxAct {
			maxAct[i] = 1
		}
		return maxAct
	}
	for _, s := range calib.Samples {
		x := s.Input
		for i, l := range n.Layers {
			x = l.Forward(x)
			if _, isPool := l.(*ann.AvgPool); isPool {
				continue // handled below via propagation
			}
			if m := x.Max(); m > maxAct[i] {
				maxAct[i] = m
			}
		}
	}
	// Pool layers: use the previous layer's scale (unit-gain linear).
	for i, l := range n.Layers {
		if _, isPool := l.(*ann.AvgPool); isPool {
			if i > 0 {
				maxAct[i] = maxAct[i-1]
			} else {
				maxAct[i] = 1
			}
		}
	}
	return maxAct
}

func layerInShape(n *ann.Network, i int) tensor.Shape3 {
	if i == 0 {
		return n.Input
	}
	return flatOrVolume(n.Layers[i-1])
}

func layerOutShape(n *ann.Network, i int) tensor.Shape3 {
	l := n.Layers[i]
	if d, ok := l.(*ann.Dense); ok {
		return tensor.Shape3{H: 1, W: 1, C: d.OutSize()}
	}
	return flatOrVolume(l)
}

func flatOrVolume(l ann.Layer) tensor.Shape3 {
	switch t := l.(type) {
	case *ann.Conv:
		return t.OutShape()
	case *ann.AvgPool:
		return t.OutShape()
	default:
		return tensor.Shape3{H: 1, W: 1, C: l.OutSize()}
	}
}

// Evaluate classifies every sample of the set with T timesteps and returns
// accuracy. enc is reused across samples (its RNG advances), keeping runs
// deterministic for a fixed encoder seed.
func Evaluate(net *Network, set *dataset.Set, enc Encoder, steps int) float64 {
	if len(set.Samples) == 0 {
		return 0
	}
	st := NewState(net)
	correct := 0
	for _, s := range set.Samples {
		r := st.RunBlockedK(s.Input, enc, steps, 0, nil)
		if r.Prediction == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(set.Samples))
}
