// Equivalence suite for the blocked layer-major runner: RunBlockedK and a
// Step loop must be bit-identical to the step-major CSR oracle
// (oracle_test.go) — same RunResult and the same per-step observer view —
// for every layer kind, reset mode, leak, threshold sign, quantization, and
// block size.
package snn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/quant"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// mlpFixture builds a 3-layer MLP; leak/hard apply to the hidden layers so
// the blocked dense kernel is exercised with decay and both reset modes.
func mlpFixture(t *testing.T, leak float64, hard bool) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(417))
	sizes := []int{48, 37, 21, 6}
	layers := make([]*snn.Layer, 0, len(sizes)-1)
	for i := 1; i < len(sizes); i++ {
		w := tensor.NewMat(sizes[i], sizes[i-1])
		for j := range w.Data {
			w.Data[j] = rng.NormFloat64() * 0.35
		}
		l, err := snn.NewDense(fmt.Sprintf("d%d", i), sizes[i-1], sizes[i], w, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(sizes)-1 {
			l.Leak = leak
			l.HardReset = hard
		}
		layers = append(layers, l)
	}
	net, err := snn.NewNetwork("mlp-eq", tensor.Shape3{H: 6, W: 8, C: 1}, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// rasterRecorder captures the full step-major spike history of a run so two
// runs can be compared event for event.
type rasterRecorder struct {
	input  [][]int32   // per step, input spike indices
	layers [][][]int32 // per step, per layer, output spike indices
}

func (r *rasterRecorder) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	r.input = append(r.input, input.AppendSet(nil))
	step := make([][]int32, len(layers))
	for i, l := range layers {
		step[i] = l.AppendSet(nil)
	}
	r.layers = append(r.layers, step)
}

func equalIdx(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertRastersEqual requires two recorded runs to agree event for event.
func assertRastersEqual(t *testing.T, what string, want, got *rasterRecorder, steps int) {
	t.Helper()
	if len(want.input) != steps || len(got.input) != steps {
		t.Fatalf("%s: observed %d/%d steps, want %d", what, len(want.input), len(got.input), steps)
	}
	for step := range want.input {
		if !equalIdx(want.input[step], got.input[step]) {
			t.Fatalf("%s step %d: input rasters differ", what, step)
		}
		for li := range want.layers[step] {
			if !equalIdx(want.layers[step][li], got.layers[step][li]) {
				t.Fatalf("%s step %d layer %d: rasters differ\noracle %v\ngot    %v",
					what, step, li, want.layers[step][li], got.layers[step][li])
			}
		}
	}
}

// assertBlockedMatchesStepped runs the same classification through the
// step-major CSR oracle, the blocked runner at block size blockK and a Step
// loop, and requires identical results, identical observed rasters and
// identical last-step views.
func assertBlockedMatchesStepped(t *testing.T, net *snn.Network, steps, blockK int) {
	t.Helper()
	in := make(tensor.Vec, net.Input.Size())
	for i := range in {
		in[i] = float64((i*13+5)%100) / 99
	}
	var sRec, bRec, stepRec rasterRecorder
	sr, sIn, sLayers, sVmem := snn.OracleRun(net, in, snn.NewPoissonEncoder(0.8, 23), steps, &sRec)
	bSt := snn.NewState(net)
	br := bSt.RunBlockedK(in, snn.NewPoissonEncoder(0.8, 23), steps, blockK, &bRec)
	if sr.Prediction != br.Prediction || sr.InputSpikes != br.InputSpikes || sr.Steps != br.Steps {
		t.Fatalf("K=%d: prediction %d/%d, input spikes %d/%d, steps %d/%d",
			blockK, sr.Prediction, br.Prediction, sr.InputSpikes, br.InputSpikes, sr.Steps, br.Steps)
	}
	for c := range sr.OutCounts {
		if sr.OutCounts[c] != br.OutCounts[c] || sr.FirstSpike[c] != br.FirstSpike[c] {
			t.Fatalf("K=%d class %d: counts %d/%d, first spike %d/%d",
				blockK, c, sr.OutCounts[c], br.OutCounts[c], sr.FirstSpike[c], br.FirstSpike[c])
		}
	}
	assertRastersEqual(t, fmt.Sprintf("K=%d", blockK), &sRec, &bRec, steps)
	// The post-run step views must match too (consumers peek at LayerSpikes).
	if !equalIdx(sIn.AppendSet(nil), bSt.InputSpikes().AppendSet(nil)) {
		t.Fatalf("K=%d: final InputSpikes views differ", blockK)
	}
	for li := range net.Layers {
		if !equalIdx(sLayers[li].AppendSet(nil), bSt.LayerSpikes(li).AppendSet(nil)) {
			t.Fatalf("K=%d: final LayerSpikes(%d) views differ", blockK, li)
		}
		// Potentials must match bit for bit: an add-order change shows here
		// even when it flips no spike.
		for j, want := range sVmem[li] {
			if got := bSt.Vmem[li][j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("K=%d layer %d neuron %d: potential %v (%x), oracle %v (%x)",
					blockK, li, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	// A Step loop on a State warmed by a blocked run of another input.
	stSt := snn.NewState(net)
	stSt.RunBlockedK(make(tensor.Vec, len(in)), snn.NewPoissonEncoder(0.8, 1), 3, blockK, nil)
	stSt.Reset()
	enc := snn.NewPoissonEncoder(0.8, 23)
	bits := bitvec.New(net.Input.Size())
	views := make([]*bitvec.Bits, len(net.Layers))
	for step := 0; step < steps; step++ {
		enc.Encode(in, bits)
		stSt.Step(bits)
		for li := range views {
			views[li] = stSt.LayerSpikes(li)
		}
		stepRec.ObserveStep(step, stSt.InputSpikes(), views)
	}
	assertRastersEqual(t, "Step loop", &sRec, &stepRec, steps)
}

var blockSizes = []int{1, 7, 64}

// The blocked runner matches the reference on a plain IF MLP for block sizes
// smaller than, dividing, and exceeding the step count.
func TestBlockedMatchesSteppedMLP(t *testing.T) {
	net := mlpFixture(t, 0, false)
	for _, k := range blockSizes {
		assertBlockedMatchesStepped(t, net, 20, k)
	}
}

// Leaky integration (per-step decay inside the block) stays bit-identical.
func TestBlockedMatchesSteppedLeaky(t *testing.T) {
	net := mlpFixture(t, 0.12, false)
	for _, k := range blockSizes {
		assertBlockedMatchesStepped(t, net, 20, k)
	}
}

// Hard reset (potential to zero on fire) stays bit-identical.
func TestBlockedMatchesSteppedHardReset(t *testing.T) {
	net := mlpFixture(t, 0.05, true)
	for _, k := range blockSizes {
		assertBlockedMatchesStepped(t, net, 20, k)
	}
}

// The conv+pool+dense topology exercises the event-driven block path.
func TestBlockedMatchesSteppedConvPool(t *testing.T) {
	net := convPoolFixture(t)
	for _, k := range blockSizes {
		assertBlockedMatchesStepped(t, net, 20, k)
	}
}

// wideConvPoolFixture builds conv(3x3, 11 ch) -> pool 2x2 -> conv(3x3,
// stride 2, 9 ch) -> pool 3x3 -> dense, so every kernel runs both full
// 8-lane groups and a partial last group, and the pools cover the 2x2
// and the general-K paths. leak, hard and th (threshold scale; negative
// flips the sign) apply to every hidden layer.
func wideConvPoolFixture(t *testing.T, leak float64, hard bool, th float64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	fill := func(w *tensor.Mat) *tensor.Mat {
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * 0.3
		}
		return w
	}
	in := tensor.Shape3{H: 12, W: 12, C: 2}
	g1 := tensor.ConvGeom{In: in, K: 3, Stride: 1, Pad: 1, OutC: 11}
	conv1, err := snn.NewConv("conv1", g1, fill(tensor.NewMat(11, g1.FanIn())), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pool1, err := snn.NewPool("pool1", conv1.Out, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	g2 := tensor.ConvGeom{In: pool1.Out, K: 3, Stride: 2, Pad: 1, OutC: 9}
	conv2, err := snn.NewConv("conv2", g2, fill(tensor.NewMat(9, g2.FanIn())), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := snn.NewPool("pool2", conv2.Out, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := snn.NewDense("fc", pool2.OutSize(), 5, fill(tensor.NewMat(5, pool2.OutSize())), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	hidden := []*snn.Layer{conv1, pool1, conv2, pool2}
	for _, l := range hidden {
		l.Leak = leak
		l.HardReset = hard
		l.Threshold *= th
	}
	net, err := snn.NewNetwork("wide-conv-pool", in, append(hidden, fc)...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Conv and pool panel paths with leak, with hard reset, and with both.
func TestBlockedMatchesSteppedConvPoolLeakyHard(t *testing.T) {
	for _, tc := range []struct {
		leak float64
		hard bool
	}{{0, false}, {0.15, false}, {0, true}, {0.1, true}} {
		net := wideConvPoolFixture(t, tc.leak, tc.hard, 1)
		for _, k := range blockSizes {
			assertBlockedMatchesStepped(t, net, 20, k)
		}
	}
}

// wideRowFixture builds conv(3x3, 26 ch) -> pool 2x2 -> conv(3x3, 11 ch)
// -> pool 2x2 -> dense. conv2 reads 26 input channels, so an interior
// kernel row spans 78 bits and an edge row 52: the layer takes the wide
// once-per-block gather (segments of one spike list per step) for every
// location, both its full 8-lane group and its 3-lane partial group. The
// 26-channel pool1 ends in a two-lane partial group.
func wideRowFixture(t *testing.T, leak float64, hard bool) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(79))
	fill := func(w *tensor.Mat, scale float64) *tensor.Mat {
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * scale
		}
		return w
	}
	in := tensor.Shape3{H: 8, W: 8, C: 3}
	g1 := tensor.ConvGeom{In: in, K: 3, Stride: 1, Pad: 1, OutC: 26}
	conv1, err := snn.NewConv("conv1", g1, fill(tensor.NewMat(26, g1.FanIn()), 0.3), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pool1, err := snn.NewPool("pool1", conv1.Out, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	g2 := tensor.ConvGeom{In: pool1.Out, K: 3, Stride: 1, Pad: 1, OutC: 11}
	conv2, err := snn.NewConv("conv2", g2, fill(tensor.NewMat(11, g2.FanIn()), 0.15), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := snn.NewPool("pool2", conv2.Out, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := snn.NewDense("fc", pool2.OutSize(), 5, fill(tensor.NewMat(5, pool2.OutSize()), 0.3), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	hidden := []*snn.Layer{conv1, pool1, conv2, pool2}
	for _, l := range hidden {
		l.Leak = leak
		l.HardReset = hard
	}
	net, err := snn.NewNetwork("wide-row", in, append(hidden, fc)...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// The wide conv gather (kernel rows over more than 64 input bits) with and
// without leak and in both reset modes, at the usual block sizes and at a
// 100-step block: past 64 steps conv and dense take their list loops and
// the pool kernel runs in 64-step chunks.
func TestBlockedMatchesSteppedWideRows(t *testing.T) {
	for _, tc := range []struct {
		leak float64
		hard bool
	}{{0, false}, {0, true}, {0.1, false}, {0.1, true}} {
		net := wideRowFixture(t, tc.leak, tc.hard)
		for _, k := range blockSizes {
			assertBlockedMatchesStepped(t, net, 20, k)
		}
		assertBlockedMatchesStepped(t, net, 100, 100)
	}
}

// Negative thresholds fire neurons without input, so no silent step can be
// skipped (under leak a negative potential decays toward zero and may cross
// the threshold). Dense, conv and pool layers, with and without leak.
func TestBlockedMatchesSteppedNegativeThreshold(t *testing.T) {
	for _, leak := range []float64{0, 0.2} {
		mlp := mlpFixture(t, leak, false)
		mlp.Layers[0].Threshold = -0.05
		mlp.Layers[1].Threshold = -0.4
		for _, net := range []*snn.Network{mlp, wideConvPoolFixture(t, leak, false, -0.1), wideConvPoolFixture(t, leak, true, -0.1)} {
			for _, k := range blockSizes {
				assertBlockedMatchesStepped(t, net, 20, k)
			}
		}
	}
}

// 4-bit quantized weights (the memristive crossbar configuration) stay
// bit-identical through the blocked path.
func TestBlockedMatchesSteppedQuantized(t *testing.T) {
	qnet, err := quant.QuantizeNetwork(convPoolFixture(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	qwide, err := quant.QuantizeNetwork(wideConvPoolFixture(t, 0.1, false, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range blockSizes {
		assertBlockedMatchesStepped(t, qnet, 20, k)
		assertBlockedMatchesStepped(t, qwide, 20, k)
	}
}

// RunBlockedK (default block size) matches the oracle on a stateful
// deterministic encoder: the blocked runner must invoke Encode in strict
// timestep order.
func TestBlockedDefaultWithRegularEncoder(t *testing.T) {
	net := mlpFixture(t, 0, false)
	in := make(tensor.Vec, net.Input.Size())
	for i := range in {
		in[i] = float64((i*7+3)%50) / 49
	}
	sr, _, _, _ := snn.OracleRun(net, in, snn.NewRegularEncoder(0.7), 30, nil)
	br := snn.NewState(net).RunBlockedK(in, snn.NewRegularEncoder(0.7), 30, 0, nil)
	if sr.Prediction != br.Prediction || sr.InputSpikes != br.InputSpikes {
		t.Fatalf("prediction %d/%d, input spikes %d/%d",
			sr.Prediction, br.Prediction, sr.InputSpikes, br.InputSpikes)
	}
	for c := range sr.OutCounts {
		if sr.OutCounts[c] != br.OutCounts[c] {
			t.Fatalf("class %d: counts %d/%d", c, sr.OutCounts[c], br.OutCounts[c])
		}
	}
}

// A State must be reusable across blocked runs with different block sizes
// and interleaved default-block runs without cross-contamination.
func TestBlockedStateReuse(t *testing.T) {
	net := mlpFixture(t, 0.1, false)
	in := make(tensor.Vec, net.Input.Size())
	for i := range in {
		in[i] = float64((i*11+1)%80) / 79
	}
	st := snn.NewState(net)
	ref, _, _, _ := snn.OracleRun(net, in, snn.NewPoissonEncoder(0.8, 5), 24, nil)
	for trial, k := range []int{64, 3, 24, 1, 5} {
		got := st.RunBlockedK(in, snn.NewPoissonEncoder(0.8, 5), 24, k, nil)
		for c := range ref.OutCounts {
			if ref.OutCounts[c] != got.OutCounts[c] {
				t.Fatalf("trial %d (K=%d) class %d: counts %d want %d",
					trial, k, c, got.OutCounts[c], ref.OutCounts[c])
			}
		}
		// Interleave a default-block run on the same State.
		mid := st.RunBlockedK(in, snn.NewPoissonEncoder(0.8, 5), 24, 0, nil)
		if mid.Prediction != ref.Prediction {
			t.Fatalf("trial %d: interleaved default-block run diverged", trial)
		}
	}
}

// TestRunGroupMatchesAlone pins RunGroup to running each member alone:
// for groups of one to five images of different brightness, full runs and
// early exit, block sizes 3 and 64, on dense no-leak (grouped), leaky and
// hard-reset MLPs and a conv/pool/dense network, every member's RunResult,
// observed rasters and final potentials must equal those of its own
// RunBlockedK (or RunToFirstSpike) bit for bit.
func TestRunGroupMatchesAlone(t *testing.T) {
	const steps = 20
	nets := []*snn.Network{
		mlpFixture(t, 0, false),
		mlpFixture(t, 0.12, false),
		mlpFixture(t, 0, true),
		convPoolFixture(t),
	}
	for ni, net := range nets {
		inputs := make([]tensor.Vec, 5)
		for m := range inputs {
			inputs[m] = make(tensor.Vec, net.Input.Size())
			for i := range inputs[m] {
				inputs[m][i] = float64((i*13+5*m)%100) / 99 * (1 - 0.15*float64(m))
			}
		}
		for _, early := range []bool{false, true} {
			for _, k := range []int{3, 64} {
				for g := 1; g <= len(inputs); g++ {
					what := fmt.Sprintf("net %d early=%v K=%d G=%d", ni, early, k, g)
					ms := make([]snn.Member, g)
					recs := make([]rasterRecorder, g)
					for m := range ms {
						ms[m] = snn.Member{State: snn.NewState(net), Input: inputs[m], Enc: snn.NewPoissonEncoder(0.8, int64(40+m)), Obs: &recs[m]}
					}
					out := make([]snn.RunResult, g)
					snn.RunGroup(ms, steps, k, early, out)
					if early && g == len(inputs) {
						exits := map[int]bool{}
						for _, r := range out {
							exits[r.Steps] = true
						}
						if len(exits) < 2 {
							t.Fatalf("%s: every member exits at the same step; the case needs members leaving the group apart", what)
						}
					}
					for m := range ms {
						var rec rasterRecorder
						st := snn.NewState(net)
						run := st.RunBlockedK
						if early {
							run = st.RunToFirstSpike
						}
						want := run(inputs[m], snn.NewPoissonEncoder(0.8, int64(40+m)), steps, k, &rec)
						got := out[m]
						if got.Steps != want.Steps || got.Prediction != want.Prediction || got.InputSpikes != want.InputSpikes {
							t.Fatalf("%s member %d: steps/prediction/input spikes %d/%d/%d, alone %d/%d/%d", what, m,
								got.Steps, got.Prediction, got.InputSpikes, want.Steps, want.Prediction, want.InputSpikes)
						}
						for c := range want.OutCounts {
							if got.OutCounts[c] != want.OutCounts[c] || got.FirstSpike[c] != want.FirstSpike[c] {
								t.Fatalf("%s member %d class %d: counts/first spike differ", what, m, c)
							}
						}
						assertRastersEqual(t, fmt.Sprintf("%s member %d", what, m), &rec, &recs[m], want.Steps)
						for li := range net.Layers {
							for j, v := range st.Vmem[li] {
								if math.Float64bits(ms[m].State.Vmem[li][j]) != math.Float64bits(v) {
									t.Fatalf("%s member %d layer %d neuron %d: potential differs", what, m, li, j)
								}
							}
						}
					}
				}
			}
		}
	}
}
