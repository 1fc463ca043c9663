package snn

import (
	"fmt"
	"math/rand"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// State is the functional simulation state of a network: the membrane
// potential of every IF neuron plus scratch buffers. A State is reset
// between classifications.
//
// Neuron dynamics are the Integrate-and-Fire model of §2.1/§2.2: membrane
// potential accumulates the weighted sum of input spikes each timestep; when
// it crosses the layer threshold the neuron emits a spike and the potential
// is reduced by the threshold ("reset by subtraction", which preserves rate
// codes through deep stacks and is the standard choice for converted SNNs).
type State struct {
	Net  *Network
	Vmem []tensor.Vec // one per layer

	// Run scratch, reused across classifications so steady-state runs are
	// allocation-free: the spike-index buffer of output decoding and the
	// output counters returned (aliased) in RunResult.
	idx    []int32
	counts []int
	first  []int

	// Blocked-runner scratch (see blocked.go), sized on first use. Step is
	// a block of one timestep, so it shares these buffers.
	blockK      int
	blockIn     []*bitvec.Bits   // input raster of the current block
	blockOut    [][]*bitvec.Bits // per layer, output raster of the current block
	blockFlat   []int32          // concatenated per-step spike/tap index lists
	blockOffs   []int32          // per-step segment bounds into blockFlat (blockK+1)
	blockFires  []uint8          // per-step fired-lane bytes of one panel group, or of a quad's four
	blockCounts []uint64         // pool per-(group, step) lane tap counts of one location
	stepView    []*bitvec.Bits   // per-step layer view for observer replay
	last        int              // block slot of the last executed timestep

	// Group-run state (see RunGroup): the input spikes counted so far, and
	// whether this member has left the run (early exit). jobs is the
	// dense-layer operand scratch of a group whose first member this is.
	inputSpikes int
	exited      bool
	jobs        []panelJob

	// rng is the State's reused spike source: a run re-seeds it for a
	// PoissonEncoder fork that has not drawn yet (see bindEncoder), so a
	// worker's stream of images allocates no source per image. bound is
	// the fork it serves during the current run.
	rng   *rand.Rand
	bound *PoissonEncoder
}

// bindEncoder lends s's source to enc for one run when enc is a
// PoissonEncoder fork that has no source yet, re-seeded with the fork's
// seed; releaseEncoder takes it back.
func (s *State) bindEncoder(enc Encoder) {
	e, ok := enc.(*PoissonEncoder)
	if !ok || e.Rng != nil {
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(e.seed))
	} else {
		s.rng.Seed(e.seed)
	}
	e.Rng, s.bound = s.rng, e
}

func (s *State) releaseEncoder() {
	if s.bound != nil {
		s.bound.Rng, s.bound = nil, nil
	}
}

// NewState allocates simulation state for the network.
func NewState(net *Network) *State {
	s := &State{Net: net, Vmem: make([]tensor.Vec, len(net.Layers))}
	for i, l := range net.Layers {
		s.Vmem[i] = tensor.NewVec(l.OutSize())
	}
	s.counts = make([]int, net.OutSize())
	s.first = make([]int, net.OutSize())
	s.ensureBlock(1)
	return s
}

// Reset zeroes all membrane potentials (between classifications).
func (s *State) Reset() {
	for _, v := range s.Vmem {
		clear(v)
	}
}

// InputSpikes returns the input spike vector of the last executed timestep
// (aliased, not a copy; valid until the next Step or run).
func (s *State) InputSpikes() *bitvec.Bits { return s.blockIn[s.last] }

// LayerSpikes returns the output spike vector of layer i at the last
// executed timestep (aliased, not a copy; valid until the next Step or run).
func (s *State) LayerSpikes(i int) *bitvec.Bits { return s.blockOut[i][s.last] }

// Step advances the network by one timestep given the input spike vector.
// It returns the spike vector of the final layer (aliased; valid until the
// next Step). Step is a blocked run of one timestep: every layer goes
// through the same event-driven kernels as RunBlockedK (see blocked.go), so
// stepping a network T times is bit-identical to one run of T steps.
func (s *State) Step(in *bitvec.Bits) *bitvec.Bits {
	if in.Len() != s.Net.Input.Size() {
		panic(fmt.Sprintf("snn: Step input %d bits, want %d", in.Len(), s.Net.Input.Size()))
	}
	if in != s.blockIn[0] {
		s.blockIn[0].CopyFrom(in)
	}
	s.last = 0
	s.exited = false
	ms := [1]Member{{State: s}}
	runBlock(ms[:], 1)
	return s.layerIn(len(s.Net.Layers))[0]
}

// Encoder converts an analog input vector into per-timestep spike vectors.
type Encoder interface {
	// Encode fills dst with the spike pattern for one timestep given pixel
	// intensities in [0, 1].
	Encode(intensity tensor.Vec, dst *bitvec.Bits)
}

// PoissonEncoder emits a spike at each timestep with probability
// intensity*MaxProb — the rate coding used for image inputs to SNNs.
type PoissonEncoder struct {
	MaxProb float64 // spike probability at intensity 1 (0 < MaxProb <= 1)
	// Rng draws the spikes. A fork (ForkSeed) starts without one: a run
	// lends it its State's source, re-seeded, for the run's duration;
	// encoding outside a run gives it its own.
	Rng *rand.Rand

	seed int64 // base seed, retained for ForkSeed
}

// NewPoissonEncoder returns a rate encoder with the given peak spike
// probability and deterministic seed.
func NewPoissonEncoder(maxProb float64, seed int64) *PoissonEncoder {
	if maxProb <= 0 || maxProb > 1 {
		panic(fmt.Sprintf("snn: PoissonEncoder maxProb %v out of (0,1]", maxProb))
	}
	return &PoissonEncoder{MaxProb: maxProb, Rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// ForkSeed returns a fresh encoder for sample i with an independent,
// reproducible spike stream.
//
// Determinism contract: the fork's stream depends only on the base
// encoder's (MaxProb, seed) and on i — never on how many spikes the parent
// or any other fork has drawn, nor on which goroutine runs it. Fork 0's
// stream equals the base encoder's own stream from a fresh state. Batch
// evaluations key forks by image index, which makes per-image spike trains
// identical between serial and parallel evaluation regardless of worker
// count or scheduling.
//
// A fork allocates no source: the run that first encodes it (RunGroup and
// every runner over it) re-seeds its State's reused source with the fork's
// seed — the same stream a fresh source gives — and takes it back when the
// run ends, so a worker classifying a stream of images allocates one
// source, not one per image. A fork is meant for one classification:
// encoding it again after its run restarts its stream.
func (e *PoissonEncoder) ForkSeed(i int) *PoissonEncoder {
	return &PoissonEncoder{MaxProb: e.MaxProb, seed: e.seed + int64(i)}
}

// Encode implements Encoder.
func (e *PoissonEncoder) Encode(intensity tensor.Vec, dst *bitvec.Bits) {
	if len(intensity) != dst.Len() {
		panic(fmt.Sprintf("snn: Encode %d intensities into %d bits", len(intensity), dst.Len()))
	}
	if e.Rng == nil {
		e.Rng = rand.New(rand.NewSource(e.seed))
	}
	dst.Reset()
	for i, x := range intensity {
		if x <= 0 {
			continue
		}
		if e.Rng.Float64() < x*e.MaxProb {
			dst.Set(i)
		}
	}
}

// RegularEncoder is a deterministic rate encoder: each input accumulates
// its scaled intensity every timestep and spikes when the accumulator
// crosses one (subtracting one), producing evenly spaced spikes whose count
// over T steps is within one of T*intensity*MaxProb. Deterministic encoding
// removes Poisson sampling noise from accuracy measurements.
type RegularEncoder struct {
	MaxProb float64
	acc     tensor.Vec
}

// NewRegularEncoder returns a deterministic rate encoder with the given
// peak spike probability.
func NewRegularEncoder(maxProb float64) *RegularEncoder {
	if maxProb <= 0 || maxProb > 1 {
		panic(fmt.Sprintf("snn: RegularEncoder maxProb %v out of (0,1]", maxProb))
	}
	return &RegularEncoder{MaxProb: maxProb}
}

// Reset clears the accumulators (between inputs, for exact reproducibility).
func (e *RegularEncoder) Reset() {
	for i := range e.acc {
		e.acc[i] = 0
	}
}

// Encode implements Encoder.
func (e *RegularEncoder) Encode(intensity tensor.Vec, dst *bitvec.Bits) {
	if len(intensity) != dst.Len() {
		panic(fmt.Sprintf("snn: Encode %d intensities into %d bits", len(intensity), dst.Len()))
	}
	if e.acc == nil {
		e.acc = tensor.NewVec(len(intensity))
	}
	if len(e.acc) != len(intensity) {
		panic(fmt.Sprintf("snn: RegularEncoder reused across input sizes %d and %d", len(e.acc), len(intensity)))
	}
	dst.Reset()
	for i, x := range intensity {
		if x <= 0 {
			continue
		}
		e.acc[i] += x * e.MaxProb
		if e.acc[i] >= 1 {
			e.acc[i] -= 1
			dst.Set(i)
		}
	}
}

// ReplayEncoder feeds a recorded spike raster back as the input, one frame
// per Encode call in order; the intensity argument is ignored. A run over a
// raster captured from another run (see CaptureObserver) sees exactly the
// spike stream that run produced.
type ReplayEncoder struct {
	Raster []*bitvec.Bits
	t      int
}

// Encode implements Encoder.
func (r *ReplayEncoder) Encode(_ tensor.Vec, dst *bitvec.Bits) {
	dst.CopyFrom(r.Raster[r.t])
	r.t++
}

// RunResult summarizes one classification run.
//
// OutCounts and FirstSpike alias scratch owned by the State that produced
// the result, so steady-state classification allocates nothing; they are
// valid until the next run on that State. Callers that retain results
// across runs (or hand them to another goroutine) must Clone first.
type RunResult struct {
	Steps       int
	OutCounts   []int // output spike counts per class
	Prediction  int
	InputSpikes int // total encoded input spikes over the run
	// FirstSpike records the timestep of each output neuron's first spike
	// (-1 if it never fired) — the basis of time-to-first-spike decoding.
	FirstSpike []int
}

// Clone returns a copy of r whose OutCounts and FirstSpike no longer alias
// the producing State's scratch, safe to retain across subsequent runs.
func (r RunResult) Clone() RunResult {
	r.OutCounts = append([]int(nil), r.OutCounts...)
	r.FirstSpike = append([]int(nil), r.FirstSpike...)
	return r
}

// TTFSPrediction decodes by latency instead of rate: the class whose neuron
// fired first wins (ties broken by spike count, then index). Returns -1 if
// no output neuron fired. Latency decoding lets a classification terminate
// at the first output spike — a common early-exit optimization for
// event-driven hardware.
func (r RunResult) TTFSPrediction() int {
	best := -1
	for i, fs := range r.FirstSpike {
		if fs < 0 {
			continue
		}
		if best < 0 || fs < r.FirstSpike[best] ||
			(fs == r.FirstSpike[best] && r.OutCounts[i] > r.OutCounts[best]) {
			best = i
		}
	}
	return best
}

// Observer receives the spike vectors of every timestep of a run; the
// architecture simulators implement it to count events.
type Observer interface {
	// ObserveStep is called once per timestep with the input spikes and the
	// per-layer output spike vectors (aliased; copy to retain).
	ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits)
}

// CaptureObserver copies the final layer's output raster of every timestep
// t into Out[t] (preallocated by the caller), after forwarding the step to
// Inner when one is set.
type CaptureObserver struct {
	Inner Observer
	Out   []*bitvec.Bits
}

// ObserveStep implements Observer.
func (c *CaptureObserver) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	if c.Inner != nil {
		c.Inner.ObserveStep(t, input, layers)
	}
	c.Out[t].CopyFrom(layers[len(layers)-1])
}

// resetResult clears the per-run output counters.
func (s *State) resetResult() {
	for i := range s.counts {
		s.counts[i] = 0
		s.first[i] = -1
	}
}

// finishResult decodes the rate prediction from the accumulated counters.
// The returned slices alias the State scratch (see RunResult).
func (s *State) finishResult(steps, inputSpikes int) RunResult {
	best, bestN := 0, -1
	for i, c := range s.counts {
		if c > bestN {
			best, bestN = i, c
		}
	}
	return RunResult{
		Steps: steps, OutCounts: s.counts, Prediction: best,
		InputSpikes: inputSpikes, FirstSpike: s.first,
	}
}
