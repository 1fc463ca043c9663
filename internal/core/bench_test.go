package core

import (
	"math/rand"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// BenchmarkClassify measures one full transaction-level classification of a
// 784-512-10 MLP (16 timesteps) on RESPARC.
func BenchmarkClassify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.NewMat(512, 784)
	w2 := tensor.NewMat(10, 512)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.02
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.02
	}
	l1, err := snn.NewDense("h", 784, 512, w1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	l2, err := snn.NewDense("o", 512, 10, w2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snn.NewNetwork("bench", tensor.Shape3{H: 28, W: 28, C: 1}, l1, l2)
	if err != nil {
		b.Fatal(err)
	}
	mc := mapping.DefaultConfig()
	mc.Tech = device.PCM
	m, err := mapping.Map(net, mc)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Steps = 16
	chip, err := New(net, m, opt)
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.NewVec(784)
	for i := range img {
		img[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Classify(img, snn.NewPoissonEncoder(0.8, 2))
	}
}

// rasters is one classification's recorded spike vectors, per timestep: the
// network input and every layer's output.
type rasters struct {
	in     []*bitvec.Bits
	layers [][]*bitvec.Bits
}

// ObserveStep implements snn.Observer by copying the step's vectors.
func (r *rasters) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	r.in = append(r.in, input.Clone())
	ls := make([]*bitvec.Bits, len(layers))
	for i, l := range layers {
		ls[i] = l.Clone()
	}
	r.layers = append(r.layers, ls)
}

// replay feeds the recorded steps to an observer in timestep order.
func (r *rasters) replay(o snn.Observer) {
	for t := range r.in {
		o.ObserveStep(t, r.in[t], r.layers[t])
	}
}

// fig10Mapping builds the named Fig 10 network (weights seed 1), maps it at
// MCA 64 and returns its input for dataset image 0 with the mapping, which
// callers may edit before building a chip on it.
func fig10Mapping(tb testing.TB, name string) (*snn.Network, *mapping.Mapping, tensor.Vec) {
	tb.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := b.Build(1)
	if err != nil {
		tb.Fatal(err)
	}
	set := dataset.Generate(b.Dataset, 1, 101)
	in, err := bench.PrepareInput(set.Samples[0].Input, set.Shape, net.Input)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := mapping.Map(net, mapping.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return net, m, bench.NormalizeIntensity(in)
}

// recordRasters records the blocked runner's rasters for the named Fig 10
// network's first image over the given number of timesteps, on a chip with
// default options.
func recordRasters(tb testing.TB, name string, steps int) (*Chip, *rasters) {
	tb.Helper()
	net, m, in := fig10Mapping(tb, name)
	opt := DefaultOptions()
	opt.Steps = steps
	chip, err := New(net, m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &rasters{}
	snn.NewState(net).RunBlockedK(in, snn.NewPoissonEncoder(0.8, 7), steps, 0, rec)
	return chip, rec
}

// BenchmarkObserve measures the chip accountant alone: one image's
// recorded 48-step rasters replayed through a reused whole-chip observer,
// with no functional network run in the loop.
func BenchmarkObserve(b *testing.B) {
	for _, name := range []string{"mnist-cnn", "svhn-cnn", "cifar-cnn", "mnist-mlp", "cifar-mlp"} {
		b.Run(name, func(b *testing.B) {
			chip, rec := recordRasters(b, name, 48)
			obs := newObserver(chip)
			rec.replay(obs) // grow the stage grid and scratch
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				obs.reset()
				rec.replay(obs)
			}
		})
	}
}

// TestObserveStepAllocs: once an observer has charged a classification, a
// steady-state replay of the same steps (reset included) allocates nothing.
func TestObserveStepAllocs(t *testing.T) {
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		chip, rec := recordRasters(t, name, 8)
		obs := newObserver(chip)
		rec.replay(obs)
		if allocs := testing.AllocsPerRun(5, func() {
			obs.reset()
			rec.replay(obs)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per replay, want 0", name, allocs)
		}
	}
}
