package snn

import (
	"math"
	"math/rand"
	"testing"

	"resparc/internal/ann"
	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/tensor"
)

// One IF neuron with weight 0.5 and threshold 1: it must fire exactly every
// second input spike (integrate 0.5, 1.0 -> fire, subtract, repeat).
func TestIFAccumulateAndFire(t *testing.T) {
	w := tensor.NewMat(1, 1)
	w.Set(0, 0, 0.5)
	l, err := NewDense("d", 1, 1, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(net)
	in := bitvec.New(1)
	in.Set(0)
	fires := 0
	for step := 0; step < 10; step++ {
		out := st.Step(in)
		if out.Get(0) {
			fires++
			if step%2 == 0 {
				t.Fatalf("fired on even step %d (should fire on odd steps)", step)
			}
		}
	}
	if fires != 5 {
		t.Fatalf("fired %d times in 10 steps, want 5", fires)
	}
}

// Reset-by-subtraction: potential 1.7 with threshold 1 leaves 0.7 behind.
func TestResetBySubtraction(t *testing.T) {
	w := tensor.NewMat(1, 1)
	w.Set(0, 0, 1.7)
	l, _ := NewDense("d", 1, 1, w, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
	st := NewState(net)
	in := bitvec.New(1)
	in.Set(0)
	out := st.Step(in)
	if !out.Get(0) {
		t.Fatal("must fire at 1.7 >= 1")
	}
	if math.Abs(st.Vmem[0][0]-0.7) > 1e-12 {
		t.Fatalf("residual potential %v, want 0.7", st.Vmem[0][0])
	}
}

// No input spikes -> no output spikes, ever (event-driven silence).
func TestSilenceStaysSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.NewMat(5, 5)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	l, _ := NewDense("d", 5, 5, w, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 5}, l)
	st := NewState(net)
	in := bitvec.New(5)
	for i := 0; i < 20; i++ {
		if st.Step(in).Any() {
			t.Fatal("spikes from silence")
		}
	}
}

// The conv kernel behind Step must integrate what a dense reference matrix
// built from the same geometry computes.
func TestConvIntegrationMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 6, W: 6, C: 2}, K: 3, Stride: 1, Pad: 1, OutC: 4}
	w := tensor.NewMat(4, geom.FanIn())
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	conv, err := NewConv("c", geom, w, math.Inf(1)) // never fires: Vmem holds the currents
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("conv", geom.In, conv)
	if err != nil {
		t.Fatal(err)
	}
	// Dense reference matrix.
	out, _ := geom.OutShape()
	ref := tensor.NewMat(out.Size(), geom.In.Size())
	_ = geom.ForEachTap(func(outIdx, inIdx, kIdx int) {
		if inIdx < 0 {
			return
		}
		ref.Set(outIdx, inIdx, ref.At(outIdx, inIdx)+w.At(outIdx%geom.OutC, kIdx))
	})
	in := bitvec.New(geom.In.Size())
	for i := 0; i < geom.In.Size(); i += 3 {
		in.Set(i)
	}
	st := NewState(net)
	st.Step(in)
	got := st.Vmem[0]
	x := tensor.NewVec(geom.In.Size())
	in.ForEachSet(func(i int) { x[i] = 1 })
	want := ref.MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("conv integrate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Pool layer: all 4 window inputs spiking -> potential 1 >= 0.499 fires.
func TestPoolIntegration(t *testing.T) {
	p, err := NewPool("p", tensor.Shape3{H: 2, W: 2, C: 1}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork("n", tensor.Shape3{H: 2, W: 2, C: 1}, p)
	st := NewState(net)
	in := bitvec.New(4)
	in.Set(0)
	in.Set(1)
	out := st.Step(in) // 2 of 4 -> 0.5 >= 0.499 fires
	if !out.Get(0) {
		t.Fatal("pool neuron should fire with half window active")
	}
	st.Reset()
	in.Reset()
	in.Set(0)
	out = st.Step(in) // 0.25 < 0.499
	if out.Get(0) {
		t.Fatal("pool neuron fired with quarter window active")
	}
}

// Rate preservation: for a single-weight chain under the unit threshold, the
// output spike rate approaches weight * input rate.
func TestRateTransfer(t *testing.T) {
	w := tensor.NewMat(1, 1)
	w.Set(0, 0, 0.6)
	l, _ := NewDense("d", 1, 1, w, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
	st := NewState(net)
	enc := NewPoissonEncoder(0.8, 42)
	res := st.RunBlockedK(tensor.Vec{1}, enc, 2000, 0, nil)
	inRate := float64(res.InputSpikes) / 2000
	outRate := float64(res.OutCounts[0]) / 2000
	want := inRate * 0.6
	if math.Abs(outRate-want) > 0.05 {
		t.Fatalf("out rate %v, want ~%v (in rate %v)", outRate, want, inRate)
	}
}

func TestPoissonEncoderBounds(t *testing.T) {
	enc := NewPoissonEncoder(1, 1)
	dst := bitvec.New(3)
	enc.Encode(tensor.Vec{0, 0, 0}, dst)
	if dst.Any() {
		t.Fatal("zero intensity must never spike")
	}
	enc.Encode(tensor.Vec{1, 1, 1}, dst)
	// With MaxProb 1 and intensity 1 every neuron spikes.
	if dst.Count() != 3 {
		t.Fatalf("full intensity with p=1: %d spikes", dst.Count())
	}
}

func TestPoissonEncoderDeterministic(t *testing.T) {
	a := NewPoissonEncoder(0.5, 7)
	b := NewPoissonEncoder(0.5, 7)
	da, db := bitvec.New(100), bitvec.New(100)
	in := tensor.NewVec(100)
	in.Fill(0.5)
	for i := 0; i < 5; i++ {
		a.Encode(in, da)
		b.Encode(in, db)
		for j := 0; j < 100; j++ {
			if da.Get(j) != db.Get(j) {
				t.Fatal("same seed encoders diverged")
			}
		}
	}
}

func TestPoissonEncoderValidation(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("maxProb %v accepted", p)
				}
			}()
			NewPoissonEncoder(p, 1)
		}()
	}
}

type countingObserver struct {
	steps  int
	layers int
}

func (c *countingObserver) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c.steps++
	c.layers = len(layers)
}

func TestRunObserved(t *testing.T) {
	l := mustDense(t, 4, 2, 0.5, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l)
	st := NewState(net)
	obs := &countingObserver{}
	enc := NewPoissonEncoder(0.9, 3)
	in := tensor.Vec{1, 1, 1, 1}
	res := st.RunBlockedK(in, enc, 25, 0, obs)
	if obs.steps != 25 || obs.layers != 1 {
		t.Fatalf("observer saw %d steps / %d layers", obs.steps, obs.layers)
	}
	if res.Steps != 25 {
		t.Fatalf("Steps = %d", res.Steps)
	}
	// Observed and unobserved runs agree for identical encoder state.
	st2 := NewState(net)
	r1 := st2.RunBlockedK(in, NewPoissonEncoder(0.9, 3), 25, 0, nil)
	if r1.Prediction != res.Prediction || r1.InputSpikes != res.InputSpikes {
		t.Fatalf("observed/unobserved runs diverge: %+v vs %+v", r1, res)
	}
}

// End-to-end conversion: a trained MLP converted to an SNN must retain most
// of its accuracy (the basis of Fig 14a).
func TestConvertedMLPAccuracy(t *testing.T) {
	train := dataset.Generate(dataset.Digits, 300, 21)
	test := dataset.Generate(dataset.Digits, 80, 22)
	rng := rand.New(rand.NewSource(23))
	mlp := ann.NewMLP(train.Shape.Size(), []int{40}, 10, rng)
	cfg := ann.DefaultTrainConfig()
	cfg.Epochs = 6
	mlp.Train(train, cfg)
	annAcc := mlp.Evaluate(test)

	calib, _ := train.Split(60)
	net, err := FromANN("mnist-mlp", mlp, calib)
	if err != nil {
		t.Fatal(err)
	}
	snnAcc := Evaluate(net, test, NewPoissonEncoder(0.9, 5), 120)
	if annAcc < 0.6 {
		t.Fatalf("ANN accuracy too low to test conversion: %v", annAcc)
	}
	if snnAcc < annAcc-0.15 {
		t.Fatalf("SNN accuracy %v dropped too far below ANN %v", snnAcc, annAcc)
	}
}

func TestFromANNErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	empty := &ann.Network{Input: tensor.Shape3{H: 1, W: 1, C: 4}}
	if _, err := FromANN("e", empty, nil); err == nil {
		t.Fatal("empty network accepted")
	}
	// Nil calibration set falls back to unit scales and must still convert.
	mlp := ann.NewMLP(4, []int{3}, 2, rng)
	if _, err := FromANN("m", mlp, nil); err != nil {
		t.Fatalf("nil calib rejected: %v", err)
	}
}

func TestEvaluateEmptySet(t *testing.T) {
	l := mustDense(t, 4, 2, 0.5, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l)
	if got := Evaluate(net, &dataset.Set{}, NewPoissonEncoder(0.5, 1), 10); got != 0 {
		t.Fatalf("Evaluate empty = %v", got)
	}
}

func TestStepInputSizePanics(t *testing.T) {
	l := mustDense(t, 4, 2, 0.5, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l)
	st := NewState(net)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Step(bitvec.New(3))
}
