package neurocell

import (
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/mpe"
	"resparc/internal/quant"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/xbar"
)

func randDense(t *testing.T, rng *rand.Rand, in, out int, th float64) *snn.Layer {
	t.Helper()
	w := tensor.NewMat(out, in)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.3
	}
	l, err := snn.NewDense("d", in, out, w, th)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func smallMLP(t *testing.T, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l1 := randDense(t, rng, 40, 24, 1)
	l2 := randDense(t, rng, 24, 10, 1)
	net, err := snn.NewNetwork("mlp", tensor.Shape3{H: 1, W: 1, C: 40}, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func smallCNN(t *testing.T, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 8, W: 8, C: 1}, K: 3, Stride: 1, Pad: 0, OutC: 4}
	w := tensor.NewMat(4, 9)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.4
	}
	conv, err := snn.NewConv("c", geom, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := snn.NewPool("p", tensor.Shape3{H: 6, W: 6, C: 4}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	fc := randDense(t, rng, 36, 5, 1)
	net, err := snn.NewNetwork("cnn", geom.In, conv, pool, fc)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mapped(t *testing.T, net *snn.Network, size int) *mapping.Mapping {
	t.Helper()
	cfg := mapping.DefaultConfig()
	cfg.MCASize = size
	cfg.Tech = device.PCM
	m, err := mapping.Map(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The cycle-level architecture must produce bit-identical spikes to the
// functional SNN model, for MLPs and CNNs, across MCA sizes (including
// sizes forcing time-multiplexed integration across MCAs and mPEs).
func TestSpikeEquivalenceWithFunctionalModel(t *testing.T) {
	nets := map[string]*snn.Network{
		"mlp": smallMLP(t, 1),
		"cnn": smallCNN(t, 2),
	}
	for name, net := range nets {
		for _, size := range []int{8, 16, 64} {
			m := mapped(t, net, size)
			sim, err := New(net, m, mpe.Ideal, xbar.Config{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size, err)
			}
			ref := snn.NewState(net)
			rng := rand.New(rand.NewSource(3))
			in := bitvec.New(net.Input.Size())
			for step := 0; step < 30; step++ {
				in.Reset()
				for i := 0; i < in.Len(); i++ {
					if rng.Float64() < 0.3 {
						in.Set(i)
					}
				}
				got := sim.Step(in)
				want := ref.Step(in)
				for i := 0; i < want.Len(); i++ {
					if got.Get(i) != want.Get(i) {
						t.Fatalf("%s size %d step %d: spike mismatch at %d", name, size, step, i)
					}
				}
			}
		}
	}
}

// Physical mode routes through real crossbars: spikes must match a
// functional reference built from the crossbars' read-back (quantized)
// weights.
func TestPhysicalModeMatchesReadback(t *testing.T) {
	net := smallMLP(t, 4)
	m := mapped(t, net, 16)
	sim, err := New(net, m, mpe.Physical, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Build the read-back reference network.
	refLayers := make([]*snn.Layer, len(net.Layers))
	for li, l := range net.Layers {
		w := tensor.NewMat(l.OutSize(), l.InSize())
		for _, slot := range sim.layers[li].slots {
			for _, out := range slot.Alloc.Outputs {
				for _, in := range slot.Alloc.Inputs {
					if v, ok := slot.ReadbackWeight(out, in); ok {
						w.Set(int(out), int(in), v)
					}
				}
			}
		}
		rl, err := snn.NewDense(l.Name, l.InSize(), l.OutSize(), w, l.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		refLayers[li] = rl
	}
	refNet, err := snn.NewNetwork("ref", net.Input, refLayers...)
	if err != nil {
		t.Fatal(err)
	}
	ref := snn.NewState(refNet)
	rng := rand.New(rand.NewSource(5))
	in := bitvec.New(net.Input.Size())
	for step := 0; step < 20; step++ {
		in.Reset()
		for i := 0; i < in.Len(); i++ {
			if rng.Float64() < 0.25 {
				in.Set(i)
			}
		}
		got := sim.Step(in)
		want := ref.Step(in)
		for i := 0; i < want.Len(); i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("step %d: physical/readback mismatch at %d", step, i)
			}
		}
	}
}

func TestZeroInputCostsNothing(t *testing.T) {
	net := smallMLP(t, 6)
	m := mapped(t, net, 16)
	sim, err := New(net, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := sim.Step(bitvec.New(net.Input.Size()))
	if out.Any() {
		t.Fatal("spikes from silence")
	}
	if sim.Stats.MCAActivations != 0 || sim.Stats.PacketsDelivered != 0 || sim.Stats.BusWords != 0 {
		t.Fatalf("events from silence: %+v", sim.Stats)
	}
	if sim.Stats.PacketsSuppressed == 0 || sim.Stats.BusWordsSuppressed == 0 {
		t.Fatalf("zero-check should have suppressed everything: %+v", sim.Stats)
	}
}

func TestCycleCountingMonotonic(t *testing.T) {
	net := smallMLP(t, 7)
	m := mapped(t, net, 16)
	sim, err := New(net, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := bitvec.New(net.Input.Size())
	for i := 0; i < in.Len(); i++ {
		in.Set(i)
	}
	sim.Step(in)
	c1 := sim.Stats.Cycles
	if c1 == 0 {
		t.Fatal("no cycles counted")
	}
	sim.Step(in)
	if sim.Stats.Cycles <= c1 {
		t.Fatal("cycles must accumulate")
	}
}

// Smaller MCAs split the same fan-in across more arrays: multiplexing and
// activations must increase as size shrinks.
func TestSmallerMCAsMeanMoreActivations(t *testing.T) {
	net := smallMLP(t, 8)
	in := bitvec.New(net.Input.Size())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < in.Len(); i++ {
		if rng.Float64() < 0.5 {
			in.Set(i)
		}
	}
	var acts []int
	for _, size := range []int{8, 16, 64} {
		m := mapped(t, net, size)
		sim, err := New(net, m, mpe.Ideal, xbar.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sim.Step(in)
		acts = append(acts, sim.Stats.MCAActivations)
	}
	if !(acts[0] > acts[1] && acts[1] > acts[2]) {
		t.Fatalf("activations should fall with MCA size: %v", acts)
	}
}

// CCU transfers happen only when a group spans multiple mPEs.
func TestExtTransfers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// 40 inputs on 8x8 MCAs: mux degree 5, 5 MCAs per group > 4 per mPE ->
	// group spans 2 mPEs -> CCU traffic.
	l := randDense(t, rng, 40, 8, 0.5)
	net, err := snn.NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 40}, l)
	if err != nil {
		t.Fatal(err)
	}
	m := mapped(t, net, 8)
	sim, err := New(net, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := bitvec.New(40)
	for i := 0; i < 40; i++ {
		in.Set(i)
	}
	sim.Step(in)
	if sim.Stats.ExtTransfers == 0 {
		t.Fatal("expected CCU transfers for a group spanning mPEs")
	}
}

// Quantized network equivalence: running a 4-bit-quantized net through the
// cycle sim in Ideal mode matches the functional model on the same
// quantized net (sanity for the Fig 14 pipeline).
func TestQuantizedEquivalence(t *testing.T) {
	net := smallMLP(t, 11)
	qnet, err := quant.QuantizeNetwork(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := mapped(t, qnet, 16)
	sim, err := New(qnet, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := snn.NewState(qnet)
	rng := rand.New(rand.NewSource(12))
	in := bitvec.New(qnet.Input.Size())
	for step := 0; step < 15; step++ {
		in.Reset()
		for i := 0; i < in.Len(); i++ {
			if rng.Float64() < 0.4 {
				in.Set(i)
			}
		}
		got := sim.Step(in)
		want := ref.Step(in)
		for i := 0; i < want.Len(); i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("step %d: mismatch at %d", step, i)
			}
		}
	}
}

func TestRunPredicts(t *testing.T) {
	net := smallMLP(t, 13)
	m := mapped(t, net, 16)
	sim, err := New(net, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	intensity := tensor.NewVec(net.Input.Size())
	for i := range intensity {
		intensity[i] = 0.8
	}
	p := sim.Run(intensity, snn.NewPoissonEncoder(0.9, 14), 40)
	// Must agree with the functional model under the same encoder seed.
	st := snn.NewState(net)
	want := st.RunBlockedK(intensity, snn.NewPoissonEncoder(0.9, 14), 40, 0, nil).Prediction
	if p != want {
		t.Fatalf("prediction %d, functional model %d", p, want)
	}
}

func TestNewRejectsForeignMapping(t *testing.T) {
	a := smallMLP(t, 15)
	b := smallMLP(t, 16)
	m := mapped(t, a, 16)
	if _, err := New(b, m, mpe.Ideal, xbar.Config{}); err == nil {
		t.Fatal("foreign mapping accepted")
	}
}

func TestStepPanicsOnWrongInput(t *testing.T) {
	net := smallMLP(t, 17)
	m := mapped(t, net, 16)
	sim, _ := New(net, m, mpe.Ideal, xbar.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.Step(bitvec.New(3))
}
