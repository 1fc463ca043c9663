package snn

import (
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

func benchMLP(tb testing.TB) *Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.NewMat(512, 784)
	w2 := tensor.NewMat(10, 512)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.05
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.05
	}
	l1, err := NewDense("h", 784, 512, w1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	l2, err := NewDense("o", 512, 10, w2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork("bench", tensor.Shape3{H: 28, W: 28, C: 1}, l1, l2)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// BenchmarkStepMLP measures one functional timestep of a 784-512-10 MLP at
// 15% input activity — the hot loop of every experiment.
func BenchmarkStepMLP(b *testing.B) {
	net := benchMLP(b)
	st := NewState(net)
	rng := rand.New(rand.NewSource(2))
	in := bitvec.New(784)
	for i := 0; i < 784; i++ {
		if rng.Float64() < 0.15 {
			in.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(in)
	}
}

// BenchmarkStepConv measures one timestep of a same-padded 3x3x32
// convolution layer (the blocked conv kernel at a block of one step).
func BenchmarkStepConv(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 28, W: 28, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 32}
	w := tensor.NewMat(32, 9)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.1
	}
	conv, err := NewConv("c", geom, w, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork("bench", geom.In, conv)
	if err != nil {
		b.Fatal(err)
	}
	st := NewState(net)
	in := bitvec.New(784)
	for i := 0; i < 784; i++ {
		if rng.Float64() < 0.15 {
			in.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(in)
	}
}

// benchCifarMLP rebuilds the cifar-mlp benchmark topology (the largest dense
// network of the Fig 10 suite) inline — internal/bench imports this package,
// so the shape is duplicated here to keep the benchmark in-package.
func benchCifarMLP(tb testing.TB) *Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(40))
	sizes := []int{1024, 232, 1832, 1664, 40, 10}
	layers := make([]*Layer, 0, len(sizes)-1)
	for i := 1; i < len(sizes); i++ {
		w := tensor.NewMat(sizes[i], sizes[i-1])
		for j := range w.Data {
			w.Data[j] = rng.NormFloat64() * 0.08
		}
		l, err := NewDense("fc", sizes[i-1], sizes[i], w, 1)
		if err != nil {
			tb.Fatal(err)
		}
		layers = append(layers, l)
	}
	net, err := NewNetwork("cifar-mlp", tensor.Shape3{H: 32, W: 32, C: 1}, layers...)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

func benchImage(n int) tensor.Vec {
	rng := rand.New(rand.NewSource(41))
	img := tensor.NewVec(n)
	for i := range img {
		img[i] = rng.Float64()
	}
	return img
}

// BenchmarkRunBlockedCifarMLP measures one full classification (64
// timesteps) of the cifar-mlp topology through the blocked layer-major
// runner (default block size).
func BenchmarkRunBlockedCifarMLP(b *testing.B) {
	net := benchCifarMLP(b)
	st := NewState(net)
	img := benchImage(net.Input.Size())
	enc := NewPoissonEncoder(0.8, 9)
	st.RunBlockedK(img, enc, 64, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RunBlockedK(img, enc, 64, 0, nil)
	}
}

// LoadLayerInput copies a recorded block raster (one input vector per step)
// into the block buffer layer li reads, sizing the block for it. It and
// RunLayer are exported to the external test package, whose per-layer
// benchmarks build the Fig 10 networks from internal/bench (which imports
// this package).
func (s *State) LoadLayerInput(li int, in []*bitvec.Bits) {
	s.ensureBlock(len(in))
	dst := s.layerIn(li)
	for k, b := range in {
		dst[k].CopyFrom(b)
	}
}

// RunLayer advances layer li alone over a kn-step block for every member
// through runLayer, the blocked runner's per-layer dispatch (a dense no-leak
// layer runs the members as one group), leaving the layer's potentials in
// each member's Vmem[li].
func RunLayer(ms []Member, li, kn int) {
	for _, m := range ms {
		m.State.exited = false
	}
	runLayer(ms, li, kn)
}

// nopObserver is an observer that does nothing, so allocation tests see the
// runner's own replay cost.
type nopObserver struct{}

func (nopObserver) ObserveStep(int, *bitvec.Bits, []*bitvec.Bits) {}

// Steady-state classification must not allocate: the encoder writes into the
// State's input vector and all counters live in State scratch. That holds
// for full observed runs and for warm early exit.
func TestRunObservedAllocFree(t *testing.T) {
	net := benchMLP(t)
	st := NewState(net)
	img := benchImage(net.Input.Size())
	enc := NewPoissonEncoder(0.8, 9)
	st.RunBlockedK(img, enc, 24, 0, nil) // first run packs the weight panels and sizes scratch
	allocs := testing.AllocsPerRun(5, func() { st.RunBlockedK(img, enc, 24, 0, nopObserver{}) })
	if allocs != 0 {
		t.Fatalf("RunBlockedK allocates %.0f objects per classification on a warm State, want 0", allocs)
	}
	if r := st.RunToFirstSpike(img, enc, 24, 8, nopObserver{}); r.Steps >= 24 || r.Prediction < 0 {
		t.Fatalf("early exit did not exit (steps %d, prediction %d); the case needs an exit", r.Steps, r.Prediction)
	}
	allocs = testing.AllocsPerRun(5, func() { st.RunToFirstSpike(img, enc, 24, 8, nopObserver{}) })
	if allocs != 0 {
		t.Fatalf("RunToFirstSpike allocates %.0f objects per classification on a warm State, want 0", allocs)
	}

	// A warm group of four, full and early exit.
	ms := make([]Member, 4)
	out := make([]RunResult, len(ms))
	for i := range ms {
		ms[i] = Member{State: NewState(net), Input: benchImage(net.Input.Size()), Enc: NewPoissonEncoder(0.8, int64(i)), Obs: nopObserver{}}
	}
	for _, early := range []bool{false, true} {
		RunGroup(ms, 24, 8, early, out)
		if early && out[0].Steps >= 24 {
			t.Fatalf("group early exit did not exit (steps %d); the case needs an exit", out[0].Steps)
		}
		allocs = testing.AllocsPerRun(5, func() { RunGroup(ms, 24, 8, early, out) })
		if allocs != 0 {
			t.Fatalf("RunGroup(early=%v) allocates %.0f objects per group on warm States, want 0", early, allocs)
		}
	}
}

// The blocked runner must also be allocation-free once its raster buffers
// are warm, for any block size at or below the warmed size.
func TestRunBlockedAllocFree(t *testing.T) {
	net := benchMLP(t)
	st := NewState(net)
	img := benchImage(net.Input.Size())
	enc := NewPoissonEncoder(0.8, 9)
	st.RunBlockedK(img, enc, 24, 0, nil)
	for _, k := range []int{0, 8, 1} {
		allocs := testing.AllocsPerRun(5, func() { st.RunBlockedK(img, enc, 24, k, nil) })
		if allocs != 0 {
			t.Fatalf("RunBlockedK(K=%d) allocates %.0f objects per classification on a warm State, want 0", k, allocs)
		}
	}
}

// benchBatch builds a batch of random images for the evaluation-harness
// benchmarks.
func benchBatch(n, size int) []tensor.Vec {
	rng := rand.New(rand.NewSource(8))
	out := make([]tensor.Vec, n)
	for i := range out {
		v := tensor.NewVec(size)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

func benchEval(b *testing.B, workers int) {
	net := benchMLP(b)
	inputs := benchBatch(16, net.Input.Size())
	base := NewPoissonEncoder(0.8, 9)
	enc := func(i int) Encoder { return base.ForkSeed(i) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(net, inputs, enc, 24, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalBatchSerial measures the batch evaluation harness on one
// worker — the serial reference path (one op = 16 images x 24 steps).
func BenchmarkEvalBatchSerial(b *testing.B) { benchEval(b, 1) }

// BenchmarkEvalBatchParallel measures the same batch fanned across one
// worker per CPU. Compare against BenchmarkEvalBatchSerial for the
// multi-core speedup (identical results by construction).
func BenchmarkEvalBatchParallel(b *testing.B) { benchEval(b, 0) }

// BenchmarkPoissonEncode measures rate encoding of one 28x28 image.
func BenchmarkPoissonEncode(b *testing.B) {
	enc := NewPoissonEncoder(0.8, 4)
	img := tensor.NewVec(784)
	rng := rand.New(rand.NewSource(5))
	for i := range img {
		img[i] = rng.Float64()
	}
	dst := bitvec.New(784)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(img, dst)
	}
}

// benchMnistCNN rebuilds the mnist-cnn benchmark topology (conv 3x3x66 ->
// pool 2 -> conv 3x3x8 -> pool 2 -> fc 86 -> fc 10) inline with balanced
// thresholds, for the conv-panel kernel benchmarks. internal/bench imports
// this package, so the shape is duplicated here like benchCifarMLP.
func benchMnistCNN(tb testing.TB) *Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(50))
	fill := func(w *tensor.Mat) float64 {
		var sum float64
		for i := range w.Data {
			var v float64
			if rng.Float64() < 0.7 {
				v = rng.Float64() * 0.1
			} else {
				v = -rng.Float64() * 0.05
			}
			w.Data[i] = v
			sum += v
		}
		return sum / float64(len(w.Data))
	}
	th := func(fanIn int, rateIn, meanW, rateOut float64) float64 {
		t := float64(fanIn) * rateIn * meanW / rateOut
		if t < 1e-3 {
			t = 1e-3
		}
		return t
	}
	in := tensor.Shape3{H: 28, W: 28, C: 1}
	g1 := tensor.ConvGeom{In: in, K: 3, Stride: 1, Pad: 1, OutC: 66}
	w1 := tensor.NewMat(66, g1.FanIn())
	m1 := fill(w1)
	conv1, err := NewConv("conv1", g1, w1, th(g1.FanIn(), 0.12, m1, 0.15))
	if err != nil {
		tb.Fatal(err)
	}
	pool1, err := NewPool("pool1", conv1.Out, 2, 0.499)
	if err != nil {
		tb.Fatal(err)
	}
	g2 := tensor.ConvGeom{In: pool1.Out, K: 3, Stride: 1, Pad: 1, OutC: 8}
	w2 := tensor.NewMat(8, g2.FanIn())
	m2 := fill(w2)
	conv2, err := NewConv("conv2", g2, w2, th(g2.FanIn(), 0.15, m2, 0.15))
	if err != nil {
		tb.Fatal(err)
	}
	pool2, err := NewPool("pool2", conv2.Out, 2, 0.499)
	if err != nil {
		tb.Fatal(err)
	}
	wf := tensor.NewMat(86, pool2.OutSize())
	mf := fill(wf)
	fc1, err := NewDense("fc1", pool2.OutSize(), 86, wf, th(pool2.OutSize(), 0.15, mf, 0.15))
	if err != nil {
		tb.Fatal(err)
	}
	wo := tensor.NewMat(10, 86)
	mo := fill(wo)
	fc2, err := NewDense("fc2", 86, 10, wo, th(86, 0.15, mo, 0.15))
	if err != nil {
		tb.Fatal(err)
	}
	net, err := NewNetwork("mnist-cnn-bench", in, conv1, pool1, conv2, pool2, fc1, fc2)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// BenchmarkRunBlockedMnistCNN measures one full 48-step classification of the
// mnist-cnn topology through the blocked conv/pool panel kernels.
func BenchmarkRunBlockedMnistCNN(b *testing.B) {
	net := benchMnistCNN(b)
	st := NewState(net)
	img := benchImage(net.Input.Size())
	enc := NewPoissonEncoder(0.8, 9)
	st.RunBlockedK(img, enc, 48, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RunBlockedK(img, enc, 48, 0, nil)
	}
}

// The blocked conv/pool panel kernels must be allocation-free on a warm
// State: the flat/offsets spike buffers and fire bytes all live in reused
// block scratch.
func TestRunBlockedConvAllocFree(t *testing.T) {
	net := benchMnistCNN(t)
	st := NewState(net)
	img := benchImage(net.Input.Size())
	enc := NewPoissonEncoder(0.8, 9)
	st.RunBlockedK(img, enc, 48, 0, nil)
	allocs := testing.AllocsPerRun(3, func() { st.RunBlockedK(img, enc, 48, 0, nil) })
	if allocs != 0 {
		t.Fatalf("blocked CNN run allocates %.0f objects per classification on a warm State, want 0", allocs)
	}
}
