package snn

import (
	"math/bits"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// DefaultBlockSize is the temporal block length of RunBlockedK: how many
// timesteps of spike raster are buffered and pushed through one layer
// before the next layer is touched. 64 covers the paper's full evaluation
// window (T=64) in a single block while bounding the raster buffers to
// K bits per neuron (~1.8 MB for the 231k-neuron cifar-cnn benchmark).
const DefaultBlockSize = 64

// RunBlockedK classifies one input with layer-major temporal blocking: the
// input spike raster of a block of blockK timesteps (<= 0 selects
// DefaultBlockSize) is encoded up front, then each layer integrates the
// entire block — reusing that one layer's weights blockK times while they
// are cache-resident — before the next layer runs. For the feed-forward
// networks this package models, layer l at timestep t depends only on layer
// l-1 at timestep t, so inverting the (timestep, layer) loop nest is legal
// and the result is bit-identical to a step-major loop (pinned by the CSR
// oracle in oracle_test.go): per neuron, the same floating-point operations
// happen in the same order (leak, ascending-index spike accumulation,
// threshold/reset, per timestep), and membrane potentials carry across
// block boundaries through Vmem exactly as they carry across timesteps. Any
// block size therefore yields bit-identical results; the block size trades
// raster-buffer memory (blockK bits per neuron) against weight reuse (each
// layer's weights are streamed steps/blockK times instead of steps times).
//
// Observers still see the step-major view: the per-layer rasters of each
// block are buffered and replayed through ObserveStep in timestep order, so
// the architecture simulators consume blocked runs unchanged. A warm State
// runs without allocating.
func (s *State) RunBlockedK(intensity tensor.Vec, enc Encoder, steps, blockK int, obs Observer) RunResult {
	return s.run(intensity, enc, steps, blockK, obs, false)
}

// RunToFirstSpike is RunBlockedK with time-to-first-spike early exit: the
// run stops at the first timestep on which an output neuron fires (or after
// maxSteps). The observer, OutCounts, FirstSpike and InputSpikes cover the
// executed steps only, Steps counts them, and InputSpikes/LayerSpikes point
// at the exit step. Prediction is the TTFS decode at the exit step — every
// neuron firing there has count 1, so the lowest index wins — or -1 when no
// output neuron fired.
//
// The block containing the exit step is integrated (and its frames
// encoded) in full; the steps past the exit are discarded, never observed.
// Results are therefore identical to stepping the network until the first
// output spike whenever the encoder's remaining frames are not reused.
func (s *State) RunToFirstSpike(intensity tensor.Vec, enc Encoder, maxSteps, blockK int, obs Observer) RunResult {
	return s.run(intensity, enc, maxSteps, blockK, obs, true)
}

// run is the one functional loop behind RunBlockedK and RunToFirstSpike.
func (s *State) run(intensity tensor.Vec, enc Encoder, steps, blockK int, obs Observer, early bool) RunResult {
	if blockK <= 0 {
		blockK = DefaultBlockSize
	}
	if blockK > steps && steps > 0 {
		blockK = steps
	}
	s.Reset()
	s.ensureBlock(blockK)
	counts, first := s.resetResult()
	inputSpikes := 0
	last := len(s.Net.Layers) - 1
	for t0 := 0; t0 < steps; t0 += blockK {
		kn := blockK
		if steps-t0 < kn {
			kn = steps - t0
		}
		// Encode the block's input raster. The encoder is invoked once per
		// timestep in timestep order — the identical call sequence (and so
		// the identical spike streams) as a Step loop.
		for k := 0; k < kn; k++ {
			enc.Encode(intensity, s.blockIn[k])
		}
		// Layer-major sweep: each layer consumes the full block of its
		// predecessor before the next layer is touched.
		cur := s.blockIn
		for li, l := range s.Net.Layers {
			s.runLayerBlock(li, l, cur, kn)
			cur = s.blockOut[li]
		}
		// Step-major replay for observers and output decoding.
		finalR := s.blockIn
		if last >= 0 {
			finalR = s.blockOut[last]
		}
		for k := 0; k < kn; k++ {
			t := t0 + k
			// Point the last-step views (InputSpikes/LayerSpikes) at the
			// latest replayed timestep, the views a Step loop would leave.
			s.last = k
			inputSpikes += s.blockIn[k].Count()
			if obs != nil {
				for li := range s.stepView {
					s.stepView[li] = s.blockOut[li][k]
				}
				obs.ObserveStep(t, s.blockIn[k], s.stepView)
			}
			s.idx = finalR[k].AppendSet(s.idx[:0])
			for _, i := range s.idx {
				counts[i]++
				if first[i] < 0 {
					first[i] = t
				}
			}
			if early && len(s.idx) > 0 {
				r := s.finishResult(t+1, inputSpikes)
				r.Prediction = int(s.idx[0])
				return r
			}
		}
	}
	r := s.finishResult(steps, inputSpikes)
	if early {
		r.Prediction = -1
	}
	return r
}

// ensureBlock sizes the raster buffers for a block of k timesteps. Buffers
// are retained across runs (and across smaller block sizes), so repeated
// blocked classification on a warm State is allocation-free.
func (s *State) ensureBlock(k int) {
	if s.blockK >= k {
		return
	}
	s.blockK = k
	s.blockIn = make([]*bitvec.Bits, k)
	for i := range s.blockIn {
		s.blockIn[i] = bitvec.New(s.Net.Input.Size())
	}
	s.blockOut = make([][]*bitvec.Bits, len(s.Net.Layers))
	for li, l := range s.Net.Layers {
		s.blockOut[li] = make([]*bitvec.Bits, k)
		for i := range s.blockOut[li] {
			s.blockOut[li][i] = bitvec.New(l.OutSize())
		}
	}
	s.blockOffs = make([]int32, k+1)
	s.blockFires = make([]uint8, k)
	s.stepView = make([]*bitvec.Bits, len(s.Net.Layers))
}

// runLayerBlock advances one layer across the kn buffered timesteps of the
// current block, reading the predecessor raster cur and writing the layer's
// raster into s.blockOut[li].
func (s *State) runLayerBlock(li int, l *Layer, cur []*bitvec.Bits, kn int) {
	v := s.Vmem[li]
	outR := s.blockOut[li]
	for k := 0; k < kn; k++ {
		outR[k].Reset()
	}
	switch l.Kind {
	case DenseLayer:
		// Dense layers flip to output-major order: collect the block's spike
		// lists once (concatenated into one flat buffer with per-step offsets),
		// then walk each output neuron's weight row across every timestep of
		// the block while the row sits in the innermost cache.
		flat := s.blockFlat[:0]
		offs := s.blockOffs
		offs[0] = 0
		for k := 0; k < kn; k++ {
			flat = cur[k].AppendSet(flat)
			offs[k+1] = int32(len(flat))
		}
		s.blockFlat = flat
		denseBlock(l, v, flat, offs[:kn+1], s.blockFires[:kn], outR)
	case ConvLayer:
		// Conv flips to output-location-major order: per receptive field the
		// block's spiking taps are collected once into the flat/offsets
		// buffers, then each 8-channel panel integrates all kn steps with its
		// accumulators in registers (blockPanel).
		s.blockFlat = convBlock(l, v, cur[:kn], outR[:kn], s.blockFlat, s.blockOffs, s.blockFires[:kn])
	case PoolLayer:
		poolBlock(l, v, cur[:kn], outR[:kn])
	default:
		panic("snn: unknown layer kind")
	}
}

// denseBlock runs one dense layer over a block of timesteps in output-major
// order. Neurons are independent, so per output neuron j it replays the
// exact step-major sequence — leak, accumulate the spiking inputs of step k
// in ascending index order (weight W[j][i] per spike i), threshold, reset — across all kn steps with W's row j held
// in cache. Outputs are processed eight at a time purely for data-level
// parallelism: the spike accumulation of one panel-step is accumPanel
// (SSE2 on amd64, pure Go elsewhere), which adds each spike's packed
// 8-lane weight line into eight independent accumulators. Each neuron's
// own operation order (the only order float rounding depends on) is
// unchanged, so results stay bit-identical to the step-major reference.
func denseBlock(l *Layer, v tensor.Vec, flat, offs []int32, fires []uint8, outR []*bitvec.Bits) {
	w := l.W
	cols := w.Cols
	th := l.Threshold
	decay := 1 - l.Leak
	leaky := l.Leak > 0
	hard := l.HardReset
	rows := w.Rows
	pan := l.panelW()
	canSkip := !leaky || th > 0 // see poolBlock on the leak/threshold-sign caveat
	kn := len(fires)
	useBP := !leaky && kn <= 64
	stepmask := stepMask(offs)
	var acc [panelLanes]float64
	j := 0
	for ; j+panelLanes <= rows; j += panelLanes {
		// One packed panel: the weights of these eight rows for input i are
		// the contiguous eight floats at panel[i*8 .. i*8+8].
		panel := pan[(j/panelLanes)*cols*panelLanes : (j/panelLanes+1)*cols*panelLanes]
		copy(acc[:], v[j:j+panelLanes])
		if useBP {
			// Fast path (no leak): a silent block with no lane at threshold
			// is an exact no-op for this group; otherwise one blockPanel
			// call integrates all kn steps with the accumulators pinned in
			// registers and returns the fired-steps bitmask to commit.
			if stepmask == 0 && !groupHot(&acc, th) {
				continue
			}
			fs := blockPanel(panel, flat, offs, fires, &acc, th, hard)
			for ; fs != 0; fs &= fs - 1 {
				k := bits.TrailingZeros64(fs)
				outR[k].Or8(j, fires[k])
			}
		} else {
			hot := groupHot(&acc, th)
			for k := 0; k < kn; k++ {
				list := flat[offs[k]:offs[k+1]]
				if leaky {
					for i := range acc {
						acc[i] *= decay
					}
				}
				if len(list) == 0 {
					// Event-driven skip: with no input spikes every lane's
					// adds are absent in the reference too, and if no lane
					// sits at or above threshold (hot) none can fire — the
					// step is an exact no-op for this group.
					if !hot && canSkip {
						continue
					}
				} else {
					accumPanel(panel, list, &acc)
				}
				var mask uint8
				mask, hot = fireScan(&acc, th, hard)
				if mask != 0 {
					outR[k].Or8(j, mask)
				}
			}
		}
		copy(v[j:j+panelLanes], acc[:])
	}
	for ; j < rows; j++ {
		row := w.Data[j*cols : (j+1)*cols]
		p := v[j]
		if useBP {
			for k := 0; k < kn; k++ {
				if p < th {
					rem := stepmask >> uint(k)
					if rem == 0 {
						break
					}
					k += bits.TrailingZeros64(rem)
				}
				for _, i := range flat[offs[k]:offs[k+1]] {
					p += row[i]
				}
				if p >= th {
					outR[k].Set(j)
					p = resetPotential(p, th, hard)
				}
			}
		} else {
			for k := 0; k < kn; k++ {
				list := flat[offs[k]:offs[k+1]]
				if leaky {
					p *= decay
				}
				if len(list) == 0 && p < th {
					continue
				}
				for _, i := range list {
					p += row[i]
				}
				if p >= th {
					outR[k].Set(j)
					p = resetPotential(p, th, hard)
				}
			}
		}
		v[j] = p
	}
}

// stepMask summarizes which block steps carry input spikes as a bitmask (bit
// k set when segment k of the offsets table is non-empty), so the scalar
// loops of the no-leak fast path can jump over silent steps in O(1). Only
// the low 64 segments are summarized — the fast path requires kn <= 64.
func stepMask(offs []int32) uint64 {
	var m uint64
	for k := 0; k+1 < len(offs) && k < 64; k++ {
		if offs[k+1] > offs[k] {
			m |= 1 << uint(k)
		}
	}
	return m
}

// fireScan applies one step's threshold/reset to an 8-lane accumulator
// group, returning the fired-lane mask and whether any lane remains at or
// above threshold (hot) after its reset.
func fireScan(acc *[panelLanes]float64, th float64, hard bool) (mask uint8, hot bool) {
	for i, p := range acc {
		if p >= th {
			mask |= 1 << uint(i)
			p = resetPotential(p, th, hard)
			acc[i] = p
			if p >= th {
				hot = true
			}
		}
	}
	return mask, hot
}

// groupHot reports whether any lane of a gathered accumulator group is at
// or above threshold — i.e. could fire on a step without input spikes.
func groupHot(acc *[panelLanes]float64, th float64) bool {
	for _, p := range acc {
		if p >= th {
			return true
		}
	}
	return false
}

// convBlock runs one conv layer over a block of timesteps in
// output-location-major order. For each output location the spiking taps of
// its receptive field are gathered once per step into kernel-index lists
// (ascending; one AppendSetRange word walk per valid kernel row), then each
// group of eight output channels replays the step sequence — leak,
// accumPanel over the shared OutC x FanIn kernel panel, threshold, reset —
// with its eight accumulators held in registers for the whole block.
//
// Bit-identity with the step-major reference: for a fixed output neuron the
// maps (ky,kx,ic) -> input index and (ky,kx,ic) -> kernel index are both
// strictly increasing over the valid (non-padding) taps, so ascending
// kernel-index lists deliver each neuron's spike adds in exactly the
// ascending-input-index order of the event-driven reference, and per-lane
// accumPanel adds are individual IEEE additions (see DESIGN.md §13).
func convBlock(l *Layer, v tensor.Vec, cur, outR []*bitvec.Bits, flat0, offs []int32, fires []uint8) []int32 {
	g := l.Geom
	plan := l.convPlan()
	pan := l.panelW()
	w := l.W
	fanIn := w.Cols
	outC := l.Out.C
	outW := l.Out.W
	inC, inW := g.In.C, g.In.W
	th := l.Threshold
	decay := 1 - l.Leak
	leaky := l.Leak > 0
	hard := l.HardReset
	groups := outC / panelLanes
	kn := len(cur)
	canSkip := !leaky || th > 0 // see poolBlock on the leak/threshold-sign caveat
	useBP := !leaky && kn <= 64
	var acc [panelLanes]float64
	flat := flat0
	for oy := 0; oy < l.Out.H; oy++ {
		kyLo, kyHi := plan.kyLo[oy], plan.kyHi[oy]
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			kxLo, kxHi := plan.kxLo[ox], plan.kxHi[ox]
			ix0 := ox*g.Stride - g.Pad
			rowSpan := (kxHi - kxLo) * inC
			var stepmask uint64
			flat = flat[:0]
			offs[0] = 0
			for k := 0; k < kn; k++ {
				in := cur[k]
				start := int32(len(flat))
				if rowSpan > 0 && rowSpan <= 64 {
					// Narrow receptive-field rows (span <= one word) load as a
					// single masked word instead of a word-walking
					// AppendSetRange call — the common case for 3x3 kernels
					// over few-channel inputs.
					for ky := kyLo; ky < kyHi; ky++ {
						rowBase := ((iy0+ky)*inW + ix0) * inC
						lo := rowBase + kxLo*inC
						// off maps input indices of this kernel row to kernel
						// indices: kIdx = inIdx - rowBase + ky*K*inC.
						off := int32(ky*g.K*inC) - int32(rowBase)
						m := in.LoadBits(lo, rowSpan)
						for m != 0 {
							flat = append(flat, int32(lo+bits.TrailingZeros64(m))+off)
							m &= m - 1
						}
					}
				} else if rowSpan > 0 {
					for ky := kyLo; ky < kyHi; ky++ {
						rowBase := ((iy0+ky)*inW + ix0) * inC
						off := int32(ky*g.K*inC) - int32(rowBase)
						lo := rowBase + kxLo*inC
						flat = in.AppendSetRange(lo, lo+rowSpan, off, flat)
					}
				}
				if int32(len(flat)) != start {
					stepmask |= 1 << uint(k&63)
				}
				offs[k+1] = int32(len(flat))
			}
			out0 := (oy*outW + ox) * outC
			for gi := 0; gi < groups; gi++ {
				panel := pan[gi*fanIn*panelLanes : (gi+1)*fanIn*panelLanes]
				j := out0 + gi*panelLanes
				copy(acc[:], v[j:j+panelLanes])
				if useBP {
					// One blockPanel call per (location, group); see denseBlock.
					if stepmask == 0 && !groupHot(&acc, th) {
						continue
					}
					fs := blockPanel(panel, flat, offs[:kn+1], fires, &acc, th, hard)
					for ; fs != 0; fs &= fs - 1 {
						k := bits.TrailingZeros64(fs)
						outR[k].Or8(j, fires[k])
					}
				} else {
					hot := groupHot(&acc, th)
					for k := 0; k < kn; k++ {
						list := flat[offs[k]:offs[k+1]]
						if leaky {
							for i := range acc {
								acc[i] *= decay
							}
						}
						if len(list) == 0 {
							// Event-driven skip (an exact no-op in the
							// reference; see denseBlock and poolBlock).
							if !hot && canSkip {
								continue
							}
						} else {
							accumPanel(panel, list, &acc)
						}
						var mask uint8
						mask, hot = fireScan(&acc, th, hard)
						if mask != 0 {
							outR[k].Or8(j, mask)
						}
					}
				}
				copy(v[j:j+panelLanes], acc[:])
			}
			for oc := groups * panelLanes; oc < outC; oc++ {
				row := w.Data[oc*fanIn : (oc+1)*fanIn]
				j := out0 + oc
				p := v[j]
				if useBP {
					for k := 0; k < kn; k++ {
						if p < th {
							rem := stepmask >> uint(k)
							if rem == 0 {
								break
							}
							k += bits.TrailingZeros64(rem)
						}
						for _, t := range flat[offs[k]:offs[k+1]] {
							p += row[t]
						}
						if p >= th {
							outR[k].Set(j)
							p = resetPotential(p, th, hard)
						}
					}
				} else {
					for k := 0; k < kn; k++ {
						list := flat[offs[k]:offs[k+1]]
						if leaky {
							p *= decay
						}
						if len(list) == 0 && p < th {
							continue
						}
						for _, t := range list {
							p += row[t]
						}
						if p >= th {
							outR[k].Set(j)
							p = resetPotential(p, th, hard)
						}
					}
				}
				v[j] = p
			}
		}
	}
	return flat
}

// poolBlock runs one average-pooling layer over a block of timesteps in
// output-location-major order. Pool windows never touch padding (Pad == 0,
// Stride == K), every tap has the same fixed weight, and channels are
// independent, so per location the kernel walks taps in (ky, kx) order —
// ascending input index per channel — and uses Load8 to test eight
// consecutive channels' spike bits per tap at once. Each set bit adds
// PoolWeight as its own scalar IEEE addition (a popcount*weight multiply
// would round differently), preserving bit-identity with the step-major
// reference.
func poolBlock(l *Layer, v tensor.Vec, cur, outR []*bitvec.Bits) {
	g := l.Geom
	c := l.Out.C
	outW := l.Out.W
	inW := g.In.W
	pw := l.PoolWeight()
	th := l.Threshold
	decay := 1 - l.Leak
	leaky := l.Leak > 0
	hard := l.HardReset
	kn := len(cur)
	var acc [panelLanes]float64
	// Per-tap mask scratch for one window, packed eight tap bytes per word so
	// lane i's set-tap count is one masked popcount per word. The stack
	// buffer covers every realistic pool (K <= 8); larger kernels spill to a
	// heap slice once.
	var wBuf [8]uint64
	taps := g.K * g.K
	nw := (taps + 7) / 8
	wb := wBuf[:]
	if nw > len(wBuf) {
		wb = make([]uint64, nw)
	}
	// The silent-step skip relies on "no lane at threshold stays below it":
	// exact when potentials are untouched, and under leak only guaranteed for
	// positive thresholds (a negative potential decays toward zero and could
	// cross a negative threshold).
	canSkip := !leaky || th > 0
	for oy := 0; oy < l.Out.H; oy++ {
		iy0 := oy * g.Stride
		for ox := 0; ox < outW; ox++ {
			ix0 := ox * g.Stride
			out0 := (oy*outW + ox) * c
			i00 := (iy0*inW + ix0) * c
			i10 := ((iy0+1)*inW + ix0) * c
			oc := 0
			for ; oc+panelLanes <= c; oc += panelLanes {
				j := out0 + oc
				copy(acc[:], v[j:j+panelLanes])
				hot := groupHot(&acc, th)
				if g.K == 2 {
					// 2x2 windows (every Fig 10 pool) read four fixed tap
					// bytes per step — the indices are loop-invariant.
					t0, t1, t2, t3 := i00+oc, i00+c+oc, i10+oc, i10+c+oc
					for k := 0; k < kn; k++ {
						if leaky {
							for i := range acc {
								acc[i] *= decay
							}
						}
						in := cur[k]
						m0, m1, m2, m3 := in.Load8(t0), in.Load8(t1), in.Load8(t2), in.Load8(t3)
						if m0|m1|m2|m3 == 0 {
							if !hot && canSkip {
								continue
							}
						} else {
							// Every set tap adds the same pw, so a lane's
							// result depends only on its set-tap count — the
							// adds' order among taps cannot change the IEEE
							// operation sequence. Walk all set bits of the
							// packed word; bit position mod 8 is the lane.
							m := uint32(m0) | uint32(m1)<<8 | uint32(m2)<<16 | uint32(m3)<<24
							for m != 0 {
								acc[bits.TrailingZeros32(m)&7] += pw
								m &= m - 1
							}
						}
						var mask uint8
						mask, hot = fireScan(&acc, th, hard)
						if mask != 0 {
							outR[k].Or8(j, mask)
						}
					}
					copy(v[j:j+panelLanes], acc[:])
					continue
				}
				for k := 0; k < kn; k++ {
					if leaky {
						for i := range acc {
							acc[i] *= decay
						}
					}
					in := cur[k]
					// Gather the window's eight-channel tap masks first; a
					// silent window with no lane at threshold is an exact
					// no-op step (decay, if any, already applied).
					var mor uint8
					for wi := 0; wi < nw; wi++ {
						wb[wi] = 0
					}
					ti := 0
					for ky := 0; ky < g.K; ky++ {
						rowBase := ((iy0+ky)*inW + ix0) * c
						for kx := 0; kx < g.K; kx++ {
							m := in.Load8(rowBase + kx*c + oc)
							wb[ti>>3] |= uint64(m) << uint((ti&7)*8)
							ti++
							mor |= m
						}
					}
					if mor == 0 {
						if !hot && canSkip {
							continue
						}
					} else {
						// Packed-word bit walk; see the 2x2 path above on why
						// tap order cannot matter.
						for wi := 0; wi < nw; wi++ {
							m := wb[wi]
							for m != 0 {
								acc[bits.TrailingZeros64(m)&7] += pw
								m &= m - 1
							}
						}
					}
					var mask uint8
					mask, hot = fireScan(&acc, th, hard)
					if mask != 0 {
						outR[k].Or8(j, mask)
					}
				}
				copy(v[j:j+panelLanes], acc[:])
			}
			for ; oc < c; oc++ {
				j := out0 + oc
				p := v[j]
				for k := 0; k < kn; k++ {
					if leaky {
						p *= decay
					}
					in := cur[k]
					for ky := 0; ky < g.K; ky++ {
						rowBase := ((iy0+ky)*inW + ix0) * c
						for kx := 0; kx < g.K; kx++ {
							if in.Get(rowBase + kx*c + oc) {
								p += pw
							}
						}
					}
					if p >= th {
						outR[k].Set(j)
						p = resetPotential(p, th, hard)
					}
				}
				v[j] = p
			}
		}
	}
}

// resetPotential applies the post-spike reset of a fired neuron.
func resetPotential(p, th float64, hard bool) float64 {
	if hard {
		return 0
	}
	return p - th
}
