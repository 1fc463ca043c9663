package repair

import (
	"fmt"

	"resparc/internal/bitvec"
	"resparc/internal/mapping"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Crossbar-local delta-rule repair. When refresh cannot recover a crossbar
// (stuck devices pin cells away from their targets), the controller retunes
// the allocation's *programmable* weights so the column drives match the
// clean reference on a small calibration set — the healthy devices absorb
// the error the broken ones introduce. Updates follow the normalized
// least-mean-squares rule on rate-coded drives:
//
//	w[out,in] += lr * (targetDrive - actualDrive) * rate[in] / ||rate||²
//
// restricted to the damaged allocation's window, clamped to the technology's
// programmable range. Each epoch re-applies the deployment state, so the
// update sees quantization, stuck pins and drift exactly as the hardware
// would — stuck cells simply refuse to move and their neighbors compensate.
// Plain arithmetic over already-recorded rates: deterministic, stdlib-only.

// DeltaConfig tunes the fine-tuner.
type DeltaConfig struct {
	// LR is the NLMS step size in (0, 1].
	LR float64
	// Epochs is how many passes over the calibration set each allocation
	// gets; the deployment state is re-applied between passes.
	Epochs int
	// Eps floors the rate-energy normalizer.
	Eps float64
}

// DefaultDeltaConfig returns the step settings the campaigns use.
func DefaultDeltaConfig() DeltaConfig { return DeltaConfig{LR: 0.5, Epochs: 3, Eps: 1e-9} }

// rateObserver accumulates per-layer firing rates during a reference run —
// the rate-coded drives the delta rule calibrates against.
type rateObserver struct {
	input  tensor.Vec
	layers []tensor.Vec
	steps  int
}

func newRateObserver(net *snn.Network) *rateObserver {
	o := &rateObserver{input: make(tensor.Vec, net.Input.Size())}
	o.layers = make([]tensor.Vec, len(net.Layers))
	for li, l := range net.Layers {
		o.layers[li] = make(tensor.Vec, l.OutSize())
	}
	return o
}

func (o *rateObserver) ObserveStep(_ int, input *bitvec.Bits, layers []*bitvec.Bits) {
	o.steps++
	input.ForEachSet(func(i int) { o.input[i]++ })
	for li, l := range layers {
		rates := o.layers[li]
		l.ForEachSet(func(i int) { rates[i]++ })
	}
}

// rates returns the layer-li input rates (spikes per step): the network
// input for the first layer, the previous layer's output otherwise.
func (o *rateObserver) rates(li int) tensor.Vec {
	v := o.input
	if li > 0 {
		v = o.layers[li-1]
	}
	out := make(tensor.Vec, len(v))
	for i, x := range v {
		out[i] = x / float64(o.steps)
	}
	return out
}

// calibration holds, per calibration sample, the reference input rates of
// every layer.
type calibration struct {
	perLayer [][]tensor.Vec // [layer][sample] input rates
}

// calibrate replays the calibration inputs through the clean reference and
// records every layer's input rates. The reference never drifts, so a
// calibration stays valid for the deployment's whole life.
func (d *Deployment) calibrate(inputs []tensor.Vec, enc snn.EncoderFactory, steps int) (*calibration, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("repair: delta rule needs calibration inputs")
	}
	cal := &calibration{perLayer: make([][]tensor.Vec, len(d.ref.Layers))}
	for li := range d.ref.Layers {
		cal.perLayer[li] = make([]tensor.Vec, len(inputs))
	}
	st := snn.NewState(d.ref)
	for si, in := range inputs {
		o := newRateObserver(d.ref)
		st.RunBlockedK(in, enc(si), steps, 0, o)
		for li := range d.ref.Layers {
			cal.perLayer[li][si] = o.rates(li)
		}
	}
	return cal, nil
}

// DeltaRepair fine-tunes the damaged dense allocations in place: for each
// listed allocation, the programmed targets inside its window move to close
// the gap between the deployed column drives and the clean reference's, and
// the deployment state is re-applied so the next pass (and the caller) sees
// the post-quantization, post-fault effect. Dead allocations are skipped —
// no current flows, nothing to tune; that is what escalation is for.
// Returns the number of allocations tuned.
func (d *Deployment) DeltaRepair(damaged []mapping.MCAHealth, cal *calibration, cfg DeltaConfig) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cfg.LR <= 0 || cfg.Epochs <= 0 {
		return 0
	}
	tuned := 0
	for ep := 0; ep < cfg.Epochs; ep++ {
		n := 0
		for _, h := range damaged {
			if h.Dead || d.Net.Layers[h.Layer].Kind != snn.DenseLayer {
				continue
			}
			n++
			d.deltaAlloc(h.Layer, h.Index, cal, cfg)
		}
		if n == 0 {
			return 0
		}
		tuned = n
		d.apply()
	}
	d.Stats.DeltaAllocs += tuned
	return tuned
}

// deltaAlloc runs one calibration pass over one allocation. Callers hold
// d.mu and re-apply afterwards.
func (d *Deployment) deltaAlloc(li, ai int, cal *calibration, cfg DeltaConfig) {
	l := d.Net.Layers[li]
	ref := d.ref.Layers[li]
	tgt := d.targets[li]
	a := &d.Map.Layers[li].MCAs[ai]
	wmax := d.mappers[li].WMax
	samples := float64(len(cal.perLayer[li]))
	for _, rin := range cal.perLayer[li] {
		// Normalize by the FULL row's rate energy, not just this window's:
		// a wide dense row spans many MCAs and each applies its own
		// correction to the shared drive error, so per-window normalization
		// would overshoot by the tiling factor and diverge. Averaging over
		// the calibration samples bounds the per-epoch step the same way —
		// the drive error is recomputed only when the epoch re-applies the
		// deployment state.
		norm := cfg.Eps
		for _, r := range rin {
			norm += r * r
		}
		for _, out := range a.Outputs {
			o := int(out)
			// Drive mismatch over the full row: the column integrates every
			// input, so errors from outside the window still steer the
			// correction — but only this window's weights may move.
			var pred, want float64
			for in, r := range rin {
				pred += l.W.At(o, in) * r
				want += ref.W.At(o, in) * r
			}
			g := cfg.LR * (want - pred) / (norm * samples)
			if g == 0 {
				continue
			}
			for _, in := range a.Inputs {
				r := rin[int(in)]
				if r == 0 {
					continue
				}
				w := tgt.At(o, int(in)) + g*r
				if w > wmax {
					w = wmax
				} else if w < -wmax {
					w = -wmax
				}
				tgt.Set(o, int(in), w)
				d.Stats.DeltaUpdates++
			}
		}
	}
}
