package snn

import (
	"math/bits"
	"sync"

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
// runs without allocating. RunBlockedK is RunGroup with a group of one.
func (s *State) RunBlockedK(intensity tensor.Vec, enc Encoder, steps, blockK int, obs Observer) RunResult {
	return s.runOne(intensity, enc, steps, blockK, obs, false)
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
	return s.runOne(intensity, enc, maxSteps, blockK, obs, true)
}

func (s *State) runOne(intensity tensor.Vec, enc Encoder, steps, blockK int, obs Observer, early bool) RunResult {
	ms := [1]Member{{State: s, Input: intensity, Enc: enc, Obs: obs}}
	var out [1]RunResult
	RunGroup(ms[:], steps, blockK, early, out[:])
	return out[0]
}

// Member is one image of a group run (RunGroup): the State it runs on, its
// input and encoder, and the observer of its steps (nil for none).
type Member struct {
	State *State
	Input tensor.Vec
	Enc   Encoder
	Obs   Observer
}

// RunGroup classifies the members' inputs in lockstep, one block at a time:
// each member encodes its own block; dense no-leak layers then run
// weight-stationary — each packed weight panel is streamed once for the
// whole group while it is hot in cache (denseGroup) — and every other layer
// runs member by member; finally each member's block is replayed to its
// observer in step order. out[i] receives member i's result, exactly what
// RunBlockedK (or, with early set, RunToFirstSpike) returns for it on its
// own: members share weights but no state, and each neuron's operations
// keep their order, so grouping is bit-identical to running the members one
// by one. Under early exit a member that has exited leaves the group's
// later blocks.
//
// The members run on distinct States of one network; their results alias
// those States' scratch (see RunResult). out must hold len(ms) results.
// The same encoder must not serve two members: the frames are drawn block
// by block, member after member.
func RunGroup(ms []Member, steps, blockK int, early bool, out []RunResult) {
	if len(ms) == 0 {
		return
	}
	if blockK <= 0 {
		blockK = DefaultBlockSize
	}
	if blockK > steps && steps > 0 {
		blockK = steps
	}
	for _, m := range ms {
		s := m.State
		s.Reset()
		s.ensureBlock(blockK)
		s.resetResult()
		s.inputSpikes = 0
		s.exited = false
		s.bindEncoder(m.Enc)
	}
	live := len(ms)
	for t0 := 0; t0 < steps && live > 0; t0 += blockK {
		kn := min(blockK, steps-t0)
		// Encode each member's block. A member's encoder is invoked once per
		// timestep in timestep order — the identical call sequence (and so
		// the identical spike stream) as a Step loop.
		for _, m := range ms {
			if !m.State.exited {
				for k := 0; k < kn; k++ {
					m.Enc.Encode(m.Input, m.State.blockIn[k])
				}
			}
		}
		runBlock(ms, kn)
		for i, m := range ms {
			if s := m.State; !s.exited && s.replay(t0, kn, m.Obs, early, &out[i]) {
				s.exited = true
				live--
			}
		}
	}
	for i, m := range ms {
		s := m.State
		if !s.exited {
			out[i] = s.finishResult(steps, s.inputSpikes)
			if early {
				out[i].Prediction = -1
			}
		}
		s.releaseEncoder()
	}
}

// replay feeds steps t0..t0+kn-1 of the current block to obs in step order
// and decodes the output spikes. Under early exit it stops at the first
// step on which an output neuron fires, stores the TTFS result in r and
// reports true.
func (s *State) replay(t0, kn int, obs Observer, early bool, r *RunResult) bool {
	finalR := s.layerIn(len(s.Net.Layers))
	for k := 0; k < kn; k++ {
		t := t0 + k
		// Point the last-step views (InputSpikes/LayerSpikes) at the latest
		// replayed timestep, the views a Step loop would leave.
		s.last = k
		s.inputSpikes += s.blockIn[k].Count()
		if obs != nil {
			for li := range s.stepView {
				s.stepView[li] = s.blockOut[li][k]
			}
			obs.ObserveStep(t, s.blockIn[k], s.stepView)
		}
		s.idx = finalR[k].AppendSet(s.idx[:0])
		for _, i := range s.idx {
			s.counts[i]++
			if s.first[i] < 0 {
				s.first[i] = t
			}
		}
		if early && len(s.idx) > 0 {
			*r = s.finishResult(t+1, s.inputSpikes)
			r.Prediction = int(s.idx[0])
			return true
		}
	}
	return false
}

// runBlock advances every live member across the kn buffered timesteps of
// the current block, layer by layer (layer-major: each layer consumes the
// full block of its predecessor before the next layer is touched).
func runBlock(ms []Member, kn int) {
	for li := range ms[0].State.Net.Layers {
		runLayer(ms, li, kn)
	}
}

// runLayer advances layer li of every live member across kn steps. Dense
// no-leak layers run as one group (denseGroup); every other layer runs
// member by member.
func runLayer(ms []Member, li, kn int) {
	l := ms[0].State.Net.Layers[li]
	if l.Kind == DenseLayer && l.Leak == 0 && kn <= 64 {
		denseGroup(ms, li, l, kn)
		return
	}
	for _, m := range ms {
		if s := m.State; !s.exited {
			s.runLayerBlock(li, l, s.layerIn(li), kn)
		}
	}
}

// layerIn returns the block raster layer li reads: the input raster for
// layer 0, else layer li-1's output raster (li == len(Layers) gives the
// network's output raster).
func (s *State) layerIn(li int) []*bitvec.Bits {
	if li == 0 {
		return s.blockIn
	}
	return s.blockOut[li-1]
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
	s.blockFires = make([]uint8, quadGroups*k)
	s.stepView = make([]*bitvec.Bits, len(s.Net.Layers))
}

// runLayerBlock advances one layer across the kn buffered timesteps of the
// current block, reading the predecessor raster cur and writing the layer's
// raster into s.blockOut[li]. Dense no-leak layers go through denseGroup
// instead (see runLayer).
func (s *State) runLayerBlock(li int, l *Layer, cur []*bitvec.Bits, kn int) {
	v := s.Vmem[li]
	outR := s.blockOut[li]
	for k := 0; k < kn; k++ {
		outR[k].Reset()
	}
	switch l.Kind {
	case DenseLayer:
		denseBlock(l, v, s.spikeLists(cur, kn), s.blockOffs[:kn+1], outR)
	case ConvLayer:
		// Conv flips to output-location-major order: per receptive field the
		// block's spiking taps are enumerated once (flat/offsets lists, or
		// segments of a per-layer spike list for wide kernel rows), then
		// the 8-channel panels integrate all kn steps with their
		// accumulators in registers (blockQuad, blockPanel, segPanel).
		s.blockFlat = convBlock(l, v, cur[:kn], outR[:kn], s.blockFlat, s.blockOffs, s.blockFires)
	case PoolLayer:
		// Pool sums each window's tap bits into per-lane counts, one word per
		// (8-channel group, step), and integrates each group in poolPanel.
		ng := (l.Out.C + panelLanes - 1) / panelLanes
		s.blockCounts = growUint64(s.blockCounts, ng*min(kn, 64))
		poolBlock(l, v, cur[:kn], outR[:kn], s.blockCounts)
	default:
		panic("snn: unknown layer kind")
	}
}

// spikeLists collects the spike lists of a dense layer's input block once,
// concatenated into s.blockFlat with step k at
// flat[s.blockOffs[k]:s.blockOffs[k+1]], so each output neuron's weight row
// can then be walked across every timestep of the block while it sits in
// cache (output-major order).
func (s *State) spikeLists(cur []*bitvec.Bits, kn int) []int32 {
	flat := s.blockFlat[:0]
	offs := s.blockOffs
	offs[0] = 0
	for k := 0; k < kn; k++ {
		flat = cur[k].AppendSet(flat)
		offs[k+1] = int32(len(flat))
	}
	s.blockFlat = flat
	return flat
}

// denseGroup runs no-leak dense layer li over the current block (kn <= 64
// steps) for every live member, weight-stationary: each member's spike
// lists are built once, then blockGroups walks the layer's packed panels
// quad by quad and integrates each quad for every member in turn, so a
// panel is streamed from memory once per group instead of once per image.
// The hidden layers of the MLPs hold 15-30 MB of panels against a 2 MB L2;
// they are bound by that stream, not by the adds. Members share only the
// weights, and each member's neurons see the same kernel calls in the same
// order as in a run of its own, so the result is bit-identical to running
// the members one by one.
func denseGroup(ms []Member, li int, l *Layer, kn int) {
	s0 := ms[0].State
	jobs := s0.jobs[:0]
	for _, m := range ms {
		s := m.State
		if s.exited {
			continue
		}
		outR := s.blockOut[li]
		for k := 0; k < kn; k++ {
			outR[k].Reset()
		}
		flat := s.spikeLists(s.layerIn(li), kn)
		offs := s.blockOffs[:kn+1]
		jobs = append(jobs, panelJob{
			v: s.Vmem[li], flat: flat, offs: offs, stepmask: stepMask(offs),
			fires: s.blockFires, outR: outR,
		})
	}
	blockGroups(l.panelW(), l.W.Cols, jobs, 0, l.Threshold, l.HardReset)
	// Keep the scratch, not the other members' buffers.
	clear(jobs)
	s0.jobs = jobs[:0]
}

// denseBlock runs one dense layer over a block of timesteps in output-major
// order for the layers denseGroup does not take: leaky layers, and blocks
// longer than the panel kernels' 64-step fire mask. Neurons are
// independent, so per output neuron j it replays the exact step-major
// sequence — leak, accumulate the spiking inputs of step k in ascending
// index order (weight W[j][i] per spike i), threshold, reset — across all
// kn steps with W's row j held in cache. Outputs are processed in 8-lane
// groups purely for data-level parallelism: each panel-step accumulates
// with accumPanel (SSE2 on amd64, pure Go elsewhere), which adds each
// spike's packed 8-lane weight line into eight independent accumulators, so
// each neuron's own operation order (the only order float rounding depends
// on) is unchanged and results stay bit-identical to the step-major
// reference.
func denseBlock(l *Layer, v tensor.Vec, flat, offs []int32, outR []*bitvec.Bits) {
	cols := l.W.Cols
	th := l.Threshold
	pan := l.panelW()
	kn := len(offs) - 1
	decay := 1 - l.Leak
	leaky := l.Leak > 0
	hard := l.HardReset
	// The silent-step skip relies on "no lane at threshold stays below it":
	// exact when potentials are untouched, and under leak only guaranteed for
	// positive thresholds (a negative potential decays toward zero and could
	// cross a negative threshold).
	canSkip := !leaky || th > 0
	for j := 0; j < len(v); j += panelLanes {
		// One packed panel: the weights of these eight rows for input i are
		// the contiguous eight floats at panel[i*8 .. i*8+8]. A last group
		// of n < 8 rows runs as a full group whose extra lanes have zero
		// weights; they are never written back or committed.
		panel := pan[(j/panelLanes)*cols*panelLanes : (j/panelLanes+1)*cols*panelLanes]
		n := min(panelLanes, len(v)-j)
		var acc [panelLanes]float64
		copy(acc[:], v[j:j+n])
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
				orLanes(outR[k], j, n, mask)
			}
		}
		copy(v[j:j+n], acc[:n])
	}
}

// panelJob is one image's operands of blockGroups: the potentials v of one
// output location (raster bits [j0, j0+len(v))), its block spike lists
// (step k at flat[offs[k]:offs[k+1]], kn = len(offs)-1 <= 64 steps), their
// stepMask, fire-byte scratch of at least quadGroups*kn bytes and the
// output raster.
type panelJob struct {
	v          tensor.Vec
	flat, offs []int32
	stepmask   uint64
	fires      []uint8
	outR       []*bitvec.Bits
}

// blockGroups integrates the neurons of one output location (a dense
// layer's rows, or one conv location's channels) over a block without leak,
// for each job — one per image of a group: step k adds the panel lines of
// the job's step-k list, then thresholds and resets. pan holds
// ⌈len(v)/8⌉ packed panels of lines weight lines each. Consecutive groups
// run four at a time through blockQuad, one pass over a job's lists per 32
// neurons; the last < 4 groups run one at a time through blockPanel. The
// loop order is weight-stationary — for each quad (or single group), for
// each job — so a group of images streams each panel once while it is hot
// in cache; jobs are independent, so the order among them cannot change a
// result.
//
// A silent block is an exact no-op for a group with no lane at threshold
// (none can fire), so it is skipped; a quad is skipped only when all four
// of its groups are cold. A cold group run through the kernel anyway is
// still exact: it has no adds, no lane fires, and the reset leaves every
// lane's bits as they were (p - 0.0 == p, ^0 & p == p).
func blockGroups(pan []float64, lines int, jobs []panelJob, j0 int, th float64, hard bool) {
	if len(jobs) == 0 {
		return
	}
	nv := len(jobs[0].v)
	span := lines * panelLanes // doubles per panel
	groups := (nv + panelLanes - 1) / panelLanes
	// A last group of n < 8 neurons runs as a full group whose extra lanes
	// have zero weights; they are never written back or committed.
	gi := 0
	for ; gi+quadGroups <= groups; gi += quadGroups {
		quad := pan[gi*span : (gi+quadGroups)*span]
		for m := range jobs {
			jb := &jobs[m]
			var acc [quadGroups][panelLanes]float64
			cold := jb.stepmask == 0
			for g := range acc {
				j := (gi + g) * panelLanes
				copy(acc[g][:], jb.v[j:min(j+panelLanes, nv)])
				cold = cold && !groupHot(&acc[g], th)
			}
			if cold {
				continue
			}
			kn := len(jb.offs) - 1
			fq := jb.fires[:quadGroups*kn]
			fs := blockQuad(quad, jb.flat, jb.offs, fq, &acc, th, hard)
			for g := range acc {
				j := (gi + g) * panelLanes
				n := min(panelLanes, nv-j)
				commitFires(jb.outR, fs[g], fq[g*kn:(g+1)*kn], j0+j, n)
				copy(jb.v[j:j+n], acc[g][:n])
			}
		}
	}
	for ; gi < groups; gi++ {
		panel := pan[gi*span : (gi+1)*span]
		j := gi * panelLanes
		n := min(panelLanes, nv-j)
		for m := range jobs {
			jb := &jobs[m]
			var acc [panelLanes]float64
			copy(acc[:], jb.v[j:j+n])
			if jb.stepmask == 0 && !groupHot(&acc, th) {
				continue
			}
			kn := len(jb.offs) - 1
			fs := blockPanel(panel, jb.flat, jb.offs, jb.fires[:kn], &acc, th, hard)
			commitFires(jb.outR, fs, jb.fires[:kn], j0+j, n)
			copy(jb.v[j:j+n], acc[:n])
		}
	}
}

// stepMask summarizes which block steps carry input spikes as a bitmask (bit
// k set when segment k of the offsets table is non-empty), so the no-leak
// fast path can skip a silent block in O(1). Only the low 64 segments are
// summarized — the fast path requires kn <= 64.
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

// commitFires commits a panel kernel's result: for every step k set in fs
// it ORs the fired-lane byte fires[k] of the group at neuron j into outR[k].
// n is the group's lane count; see orLanes.
func commitFires(outR []*bitvec.Bits, fs uint64, fires []uint8, j, n int) {
	for ; fs != 0; fs &= fs - 1 {
		k := bits.TrailingZeros64(fs)
		orLanes(outR[k], j, n, fires[k])
	}
}

// orLanes ORs the low n bits of the fired-lane byte m into bits [j, j+n).
// A full group commits with one Or8. A partial last group (n < 8) drops
// the lanes past the layer's end and commits bit by bit: its byte can
// straddle the raster's last word, where Or8 would write past it (svhn-cnn
// conv1 ends exactly on a word boundary with a 7-lane group at bit 57).
func orLanes(b *bitvec.Bits, j, n int, m uint8) {
	if n == panelLanes {
		b.Or8(j, m)
		return
	}
	for m &= 1<<uint(n) - 1; m != 0; m &= m - 1 {
		b.Set(j + bits.TrailingZeros8(m))
	}
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
// output-location-major order. For each output location every step's
// spiking taps are enumerated in kernel-index order, then each group of
// eight output channels replays the step sequence — leak, accumulate the
// shared OutC x FanIn kernel panel, threshold, reset — with its eight
// accumulators held in registers for the whole block.
//
// Taps come from one of two gathers. When a kernel row spans at most one
// word (K*InC <= 64 bits, e.g. 3x3 kernels over few channels) each row is
// one masked LoadBits into the flat/offsets lists, which every channel
// group of the location shares: without leak blockGroups integrates them
// four groups per pass (blockQuad). Wider layers build each step's input
// spike list once per block (convGather) and hand every location its
// kernel rows as (lo, hi, off) segments of it, which segPanel reads
// directly; an input spike is listed once instead of once per receptive
// field that covers it. fires is scratch of at least quadGroups*kn bytes.
//
// Bit-identity with the step-major reference: for a fixed output neuron the
// maps (ky,kx,ic) -> input index and (ky,kx,ic) -> kernel index are both
// strictly increasing over the valid (non-padding) taps, so ascending
// kernel-index lists (and ascending rows of ascending segments) deliver
// each neuron's spike adds in exactly the ascending-input-index order of
// the event-driven reference, and per-lane panel adds are individual IEEE
// additions (see DESIGN.md §13).
func convBlock(l *Layer, v tensor.Vec, cur, outR []*bitvec.Bits, flat0, offs []int32, fires []uint8) []int32 {
	g := l.Geom
	wide := g.K*g.In.C > 64
	if kn := len(cur); wide && kn > gatherSteps {
		// Potentials carry between sub-blocks through v exactly as between
		// blocks, so splitting the block bounds the gather at no cost to
		// bit-identity.
		for t0 := 0; t0 < kn; t0 += gatherSteps {
			t1 := min(t0+gatherSteps, kn)
			flat0 = convBlock(l, v, cur[t0:t1], outR[t0:t1], flat0, offs, fires)
		}
		return flat0
	}
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
	groups := (outC + panelLanes - 1) / panelLanes
	kn := len(cur)
	canSkip := !leaky || th > 0 // see denseBlock on the leak/threshold-sign caveat
	useBP := !leaky && kn <= 64
	var gs *convGather
	if wide {
		gs = takeGather()
		defer returnGather(gs)
		gs.build(cur, inC, g.In.H*inW)
	}
	// The wide gather feeds the 8-lane fast path from segments; the leaky
	// path still reads flat/offsets lists.
	needLists := !useBP
	var segs []int32
	flat := flat0
	for oy := 0; oy < l.Out.H; oy++ {
		kyLo, kyHi := plan.kyLo[oy], plan.kyHi[oy]
		iy0 := oy*g.Stride - g.Pad
		for ox := 0; ox < outW; ox++ {
			kxLo, kxHi := plan.kxLo[ox], plan.kxHi[ox]
			ix0 := ox*g.Stride - g.Pad
			var stepmask uint64
			if gs != nil {
				segs, stepmask = gs.segments(g, iy0, ix0, kyLo, kyHi, kxLo, kxHi, kn)
				if needLists {
					flat = gs.lists(segs, kyHi-kyLo, kn, flat[:0], offs)
				}
			} else {
				rowSpan := (kxHi - kxLo) * inC
				flat = flat[:0]
				offs[0] = 0
				for k := 0; k < kn; k++ {
					in := cur[k]
					start := int32(len(flat))
					for ky := kyLo; ky < kyHi && rowSpan > 0; ky++ {
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
					if int32(len(flat)) != start {
						stepmask |= 1 << uint(k&63)
					}
					offs[k+1] = int32(len(flat))
				}
			}
			out0 := (oy*outW + ox) * outC
			if useBP && gs == nil {
				// The location's channel groups share its lists: quads of
				// them integrate the block in one pass (blockGroups).
				job := [1]panelJob{{
					v: v[out0 : out0+outC], flat: flat, offs: offs[:kn+1],
					stepmask: stepmask, fires: fires, outR: outR,
				}}
				blockGroups(pan, fanIn, job[:], out0, th, hard)
				continue
			}
			for gi := 0; gi < groups; gi++ {
				panel := pan[gi*fanIn*panelLanes : (gi+1)*fanIn*panelLanes]
				j := out0 + gi*panelLanes
				// A last group of n < 8 channels runs as a full group (see
				// denseBlock).
				n := min(panelLanes, outC-gi*panelLanes)
				var acc [panelLanes]float64
				copy(acc[:], v[j:j+n])
				if useBP {
					// One segPanel call per (location, group); a silent
					// block is skipped as in blockGroups.
					if stepmask == 0 && !groupHot(&acc, th) {
						continue
					}
					fs := segPanel(panel, gs.flat, segs, kyHi-kyLo, fires[:kn], &acc, th, hard)
					commitFires(outR, fs, fires[:kn], j, n)
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
							// reference; see denseBlock).
							if !hot && canSkip {
								continue
							}
						} else {
							accumPanel(panel, list, &acc)
						}
						var mask uint8
						mask, hot = fireScan(&acc, th, hard)
						if mask != 0 {
							orLanes(outR[k], j, n, mask)
						}
					}
				}
				copy(v[j:j+n], acc[:n])
			}
		}
	}
	return flat
}

// gatherSteps is the longest (sub-)block a wide conv layer gathers at
// once. The gather holds every input spike of the steps it covers (~56 KB
// per step for cifar-cnn's conv2), so longer blocks are split; a 16-step
// sub-block still amortizes each location's per-call overhead over 16
// steps.
const gatherSteps = 16

// convGather is the once-per-block input gather of a wide conv layer.
type convGather struct {
	flat []int32 // every step's input spike indices, ascending per step
	pix  []int32 // per step, npix+1 positions in flat: each pixel's first spike, then the step's end
	npix int
	segs []int32 // one location's (lo, hi, off) kernel-row segments, step-major
}

// gathers is the free list of convGather scratch shared by all States: a
// layer call takes one and gives it back, so the list holds one buffer per
// wide layer that ever ran concurrently. A State-owned buffer would be kept
// alive by every worker's and backend's State. A sync.Pool would drop
// entries at each GC (and at random under the race detector), and a warm
// State must run without allocating.
var gathers struct {
	sync.Mutex
	free []*convGather
}

func takeGather() *convGather {
	gathers.Lock()
	defer gathers.Unlock()
	if n := len(gathers.free); n > 0 {
		gs := gathers.free[n-1]
		gathers.free = gathers.free[:n-1]
		return gs
	}
	return new(convGather)
}

func returnGather(gs *convGather) {
	gathers.Lock()
	gathers.free = append(gathers.free, gs)
	gathers.Unlock()
}

// build lists the block's input spikes and, per step and input pixel
// (inC consecutive input bits), where that pixel's spikes start in flat.
func (gs *convGather) build(cur []*bitvec.Bits, inC, npix int) {
	gs.npix = npix
	n := 0
	for _, in := range cur {
		n += in.Count()
	}
	if cap(gs.flat) < n {
		gs.flat = make([]int32, 0, n) // exact: append would leave up to 2x slack
	}
	gs.flat = gs.flat[:0]
	gs.pix = growInt32(gs.pix, len(cur)*(npix+1))
	for k, in := range cur {
		ps := gs.pix[k*(npix+1) : (k+1)*(npix+1)]
		// ps[p] is the step's list start plus the rank of bit p*inC: the
		// number of set bits below it.
		n := int32(len(gs.flat))
		words := in.Words()
		wi := 0
		for p := 0; p < npix; p++ {
			i := p * inC
			for ; wi < i>>6; wi++ {
				n += int32(bits.OnesCount64(words[wi]))
			}
			ps[p] = n + int32(bits.OnesCount64(words[wi]&(1<<uint(i&63)-1)))
		}
		gs.flat = in.AppendSet(gs.flat)
		ps[npix] = int32(len(gs.flat))
	}
}

// segments returns the receptive field of the output location whose window
// starts at input row iy0, column ix0 as kn*(kyHi-kyLo) segments (lo, hi,
// off): step k's valid kernel row ky is flat[lo:hi] shifted by off into
// kernel indices. The mask has bit k set when step k has a spike.
func (gs *convGather) segments(g tensor.ConvGeom, iy0, ix0, kyLo, kyHi, kxLo, kxHi, kn int) ([]int32, uint64) {
	inC := g.In.C
	segs := growInt32(gs.segs, 3*kn*(kyHi-kyLo))
	gs.segs = segs
	var stepmask uint64
	s := 0
	for k := 0; k < kn; k++ {
		ps := gs.pix[k*(gs.npix+1) : (k+1)*(gs.npix+1)]
		for ky := kyLo; ky < kyHi; ky++ {
			p := (iy0+ky)*g.In.W + ix0 // pixel of kx = 0 (may lie in the padding)
			lo, hi := ps[p+kxLo], ps[p+kxHi]
			segs[s], segs[s+1], segs[s+2] = lo, hi, int32((ky*g.K-p)*inC)
			if hi > lo {
				stepmask |= 1 << uint(k&63)
			}
			s += 3
		}
	}
	return segs, stepmask
}

// lists materializes segments as per-step kernel-index lists (flat, with
// step k at flat[offs[k]:offs[k+1]]) for the consumers that take lists.
func (gs *convGather) lists(segs []int32, rows, kn int, flat, offs []int32) []int32 {
	offs[0] = 0
	for k := 0; k < kn; k++ {
		for s := 3 * k * rows; s < 3*(k+1)*rows; s += 3 {
			off := segs[s+2]
			for _, i := range gs.flat[segs[s]:segs[s+1]] {
				flat = append(flat, i+off)
			}
		}
		offs[k+1] = int32(len(flat))
	}
	return flat
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// laneSpread[m] moves bit i of m to byte i: summing it over a pool
// window's tap bytes (the spike bits of eight channels at one tap) yields
// each lane's set-tap count in its byte.
var laneSpread = func() (t [256]uint64) {
	for m := range t {
		for i := 0; i < panelLanes; i++ {
			t[m] |= uint64(m>>uint(i)&1) << (8 * uint(i))
		}
	}
	return t
}()

// poolBlock runs one average-pooling layer over a block of timesteps in
// output-location-major order. Pool windows never touch padding (Pad == 0,
// Stride == K), every tap has the same fixed weight, and channels are
// independent. Without leak, per location and step the window's tap bytes
// are summed through laneSpread into per-lane set-tap counts for every
// 8-channel group — step-major, one 64-bit load per tap and eight groups,
// so each step's window bits are read once while they are in cache — and
// poolPanel then integrates each group over up to 64 steps with its
// accumulators in registers. Each set tap adds PoolWeight as its own IEEE
// addition (a count*weight multiply would round differently), and since
// all adds are the same value their order among taps cannot matter, so the
// result is bit-identical to the step-major reference. Leaky pools, and
// windows of more than 255 taps (a count must fit a byte), walk each
// channel in scalar Go. counts is scratch of at least ceil(C/8)*min(kn,64)
// words.
func poolBlock(l *Layer, v tensor.Vec, cur, outR []*bitvec.Bits, counts []uint64) {
	g := l.Geom
	if l.Leak > 0 || g.K*g.K > 255 {
		poolBlockScalar(l, v, cur, outR)
		return
	}
	c := l.Out.C
	outW := l.Out.W
	rowStride := g.In.W * c
	pw := l.PoolWeight()
	th := l.Threshold
	hard := l.HardReset
	kn := len(cur)
	// A last group of n < 8 channels runs as a full group whose extra lanes
	// see no taps and are dropped on commit.
	ng := (c + panelLanes - 1) / panelLanes
	var fires [64]uint8
	for oy := 0; oy < l.Out.H; oy++ {
		for ox := 0; ox < outW; ox++ {
			out0 := (oy*outW + ox) * c
			i0 := (oy*g.Stride*g.In.W + ox*g.Stride) * c
			for t0 := 0; t0 < kn; t0 += 64 {
				kc := min(64, kn-t0)
				cnt := counts[:ng*kc]
				for k := 0; k < kc; k++ {
					in := cur[t0+k]
					for gi := 0; gi < ng; gi++ {
						cnt[gi*kc+k] = 0
					}
					for ky, rb := 0, i0; ky < g.K; ky, rb = ky+1, rb+rowStride {
						for kx := 0; kx < g.K; kx++ {
							// One 64-bit load covers the tap's bytes of eight
							// groups; the last word is masked to the channels
							// left, so a partial group sees only its own bits.
							tap := rb + kx*c
							for g0 := 0; g0 < ng; g0 += panelLanes {
								word := in.LoadBits(tap+g0*panelLanes, min(64, c-g0*panelLanes))
								for gi := g0; gi < min(g0+panelLanes, ng); gi++ {
									cnt[gi*kc+k] += laneSpread[uint8(word)]
									word >>= 8
								}
							}
						}
					}
				}
				for gi := 0; gi < ng; gi++ {
					j := out0 + gi*panelLanes
					n := min(panelLanes, c-gi*panelLanes)
					var acc [panelLanes]float64
					copy(acc[:], v[j:j+n])
					gc := cnt[gi*kc : (gi+1)*kc]
					var any uint64
					for _, cw := range gc {
						any |= cw
					}
					if any == 0 && !groupHot(&acc, th) {
						continue // a silent block with no lane at threshold is a no-op
					}
					fs := poolPanel(gc, fires[:kc], &acc, pw, th, hard)
					commitFires(outR[t0:], fs, fires[:kc], j, n)
					copy(v[j:j+n], acc[:n])
				}
			}
		}
	}
}

// poolBlockScalar is the per-neuron pool loop: per channel and step, leak,
// one PoolWeight add per set tap in (ky, kx) order, threshold, reset.
func poolBlockScalar(l *Layer, v tensor.Vec, cur, outR []*bitvec.Bits) {
	g := l.Geom
	c := l.Out.C
	outW := l.Out.W
	inW := g.In.W
	pw := l.PoolWeight()
	th := l.Threshold
	decay := 1 - l.Leak
	leaky := l.Leak > 0
	hard := l.HardReset
	for oy := 0; oy < l.Out.H; oy++ {
		iy0 := oy * g.Stride
		for ox := 0; ox < outW; ox++ {
			ix0 := ox * g.Stride
			for oc := 0; oc < c; oc++ {
				j := (oy*outW+ox)*c + oc
				p := v[j]
				for k, in := range cur {
					if leaky {
						p *= decay
					}
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
