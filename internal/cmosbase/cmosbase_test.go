package cmosbase

import (
	"math/rand"
	"testing"

	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
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

func mlp(t *testing.T, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := snn.NewNetwork("mlp", tensor.Shape3{H: 1, W: 1, C: 40},
		randDense(t, rng, 40, 30, 1), randDense(t, rng, 30, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func cnn(t *testing.T, seed int64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 10, W: 10, C: 1}, K: 3, Stride: 1, Pad: 0, OutC: 6}
	w := tensor.NewMat(6, 9)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.4
	}
	conv, err := snn.NewConv("c", geom, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := snn.NewPool("p", tensor.Shape3{H: 8, W: 8, C: 6}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	fc := randDense(t, rng, 96, 10, 1)
	net, err := snn.NewNetwork("cnn", geom.In, conv, pool, fc)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func denseIntensity(n int, seed int64) tensor.Vec {
	rng := rand.New(rand.NewSource(seed))
	v := tensor.NewVec(n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestNewValidation(t *testing.T) {
	net := mlp(t, 1)
	bad := DefaultOptions()
	bad.Bits = 0
	if _, err := New(net, bad); err == nil {
		t.Fatal("bits 0 accepted")
	}
	bad = DefaultOptions()
	bad.Steps = 0
	if _, err := New(net, bad); err == nil {
		t.Fatal("steps 0 accepted")
	}
	empty, _ := snn.NewNetwork("e", tensor.Shape3{H: 1, W: 1, C: 4})
	if _, err := New(empty, DefaultOptions()); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestWeightMemorySizing(t *testing.T) {
	// The weight memory is provisioned at the maximum precision (8 bits)
	// regardless of the configured precision, so leakage does not shrink at
	// low precision (Fig 14b's modest slope).
	net := mlp(t, 2)
	b4, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt8 := DefaultOptions()
	opt8.Bits = 8
	b8, err := New(net, opt8)
	if err != nil {
		t.Fatal(err)
	}
	if b8.WeightMemoryBytes() != b4.WeightMemoryBytes() {
		t.Fatal("weight memory must be provisioned independent of precision")
	}
	// A larger network still needs more memory.
	big := cnn(t, 3)
	bb, err := New(big, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bb.WeightMemoryBytes() == b4.WeightMemoryBytes() {
		t.Fatal("memory must scale with network size")
	}
}

func TestSilenceIsNearlyFree(t *testing.T) {
	net := mlp(t, 3)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, rep := b.ClassifyDetailed(tensor.NewVec(net.Input.Size()), snn.NewPoissonEncoder(0.9, 1))
	if rep.Counts.SynOps != 0 || rep.Counts.WeightWords != 0 {
		t.Fatalf("ops from silence: %+v", rep.Counts)
	}
	if rep.Energy.Core != 0 || rep.Energy.MemoryAccess != 0 {
		t.Fatalf("dynamic energy from silence: %+v", rep.Energy)
	}
}

func TestEventDrivenReducesOps(t *testing.T) {
	net := mlp(t, 4)
	intensity := denseIntensity(net.Input.Size(), 5)
	on, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	offOpt := DefaultOptions()
	offOpt.EventDriven = false
	off, err := New(net, offOpt)
	if err != nil {
		t.Fatal(err)
	}
	_, repOn := on.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.6, 6))
	_, repOff := off.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.6, 6))
	if repOn.Counts.SynOps >= repOff.Counts.SynOps {
		t.Fatalf("event-driven ops %d !< %d", repOn.Counts.SynOps, repOff.Counts.SynOps)
	}
	if repOn.Energy.Total() >= repOff.Energy.Total() {
		t.Fatal("event-driven energy not lower")
	}
}

// The defining Fig 12 contrast: MLPs are memory-dominated, CNNs are
// core-dominated.
func TestEnergyBreakdownShape(t *testing.T) {
	mlpNet := mlp(t, 7)
	bm, err := New(mlpNet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, mlpRep := bm.ClassifyDetailed(denseIntensity(mlpNet.Input.Size(), 8), snn.NewPoissonEncoder(0.7, 9))
	mlpMemFrac := (mlpRep.Energy.MemoryAccess + mlpRep.Energy.MemoryLeakage) / mlpRep.Energy.Total()

	cnnNet := cnn(t, 10)
	bc, err := New(cnnNet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, cnnRep := bc.ClassifyDetailed(denseIntensity(cnnNet.Input.Size(), 11), snn.NewPoissonEncoder(0.7, 12))
	cnnMemFrac := (cnnRep.Energy.MemoryAccess + cnnRep.Energy.MemoryLeakage) / cnnRep.Energy.Total()

	if mlpMemFrac <= cnnMemFrac {
		t.Fatalf("MLP memory fraction %v should exceed CNN's %v (weight reuse)", mlpMemFrac, cnnMemFrac)
	}
}

// Fig 14b: baseline energy must grow with weight precision.
func TestEnergyGrowsWithBits(t *testing.T) {
	net := mlp(t, 13)
	intensity := denseIntensity(net.Input.Size(), 14)
	var prev float64
	for i, bits := range []int{1, 2, 4, 8} {
		opt := DefaultOptions()
		opt.Bits = bits
		b, err := New(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := b.Classify(intensity, snn.NewPoissonEncoder(0.7, 15))
		if i > 0 && res.Energy <= prev {
			t.Fatalf("energy at %d bits (%v) not above previous (%v)", bits, res.Energy, prev)
		}
		prev = res.Energy
	}
}

// Dense layers are weight-FIFO bound: cycles scale with ops; conv layers
// run on 16 parallel NUs.
func TestThroughputModel(t *testing.T) {
	cnnNet := cnn(t, 16)
	b, err := New(cnnNet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, rep := b.ClassifyDetailed(denseIntensity(cnnNet.Input.Size(), 17), snn.NewPoissonEncoder(0.8, 18))
	if rep.Counts.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	// Cycles must be well below 1 cycle/op for a conv-dominated net.
	if float64(rep.Counts.Cycles) > 0.6*float64(rep.Counts.SynOps) {
		t.Fatalf("conv net not exploiting NU parallelism: %d cycles for %d ops",
			rep.Counts.Cycles, rep.Counts.SynOps)
	}

	mlpNet := mlp(t, 19)
	bm, err := New(mlpNet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, mrep := bm.ClassifyDetailed(denseIntensity(mlpNet.Input.Size(), 20), snn.NewPoissonEncoder(0.8, 21))
	// Dense: one weight per cycle at 4 bits.
	if mrep.Counts.Cycles != mrep.Counts.SynOps {
		t.Fatalf("dense cycles %d != ops %d", mrep.Counts.Cycles, mrep.Counts.SynOps)
	}
}

func TestClassifyBatch(t *testing.T) {
	net := mlp(t, 22)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ClassifyBatch(nil, func(int) snn.Encoder { return snn.NewPoissonEncoder(0.5, 1) }, sim.Options{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	inputs := []tensor.Vec{
		denseIntensity(net.Input.Size(), 23),
		denseIntensity(net.Input.Size(), 24),
	}
	res, srep, err := b.ClassifyBatch(inputs, func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 25+int64(i)) }, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := srep.Detail.(Report)
	if res.Energy <= 0 || rep.Latency <= 0 {
		t.Fatalf("batch result %+v", res)
	}
}

func TestPredictionMatchesFunctionalModel(t *testing.T) {
	net := mlp(t, 26)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	intensity := denseIntensity(net.Input.Size(), 27)
	_, rep := b.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.8, 28))
	st := snn.NewState(net)
	want := st.RunBlockedK(intensity, snn.NewPoissonEncoder(0.8, 28), b.Opt.Steps, 0, nil).Prediction
	if rep.Predicted != want {
		t.Fatalf("baseline predicted %d, functional %d", rep.Predicted, want)
	}
}

// Per-layer cycle profiles sum to the total and reveal the dense-layer
// bottleneck of MLPs.
func TestLayerCycles(t *testing.T) {
	net := mlp(t, 70)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, rep := b.ClassifyDetailed(denseIntensity(net.Input.Size(), 71), snn.NewPoissonEncoder(0.8, 72))
	if len(rep.LayerCycles) != len(net.Layers) {
		t.Fatalf("LayerCycles %d", len(rep.LayerCycles))
	}
	sum := 0
	for _, c := range rep.LayerCycles {
		sum += c
	}
	if sum != rep.Counts.Cycles {
		t.Fatalf("layer cycles %d don't sum to %d", sum, rep.Counts.Cycles)
	}
	// The wide first dense layer dominates runtime.
	if rep.LayerCycles[0] <= rep.LayerCycles[1] {
		t.Fatalf("first (wide) dense layer should dominate: %v", rep.LayerCycles)
	}
}
