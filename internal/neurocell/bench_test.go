package neurocell

import (
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/mpe"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/xbar"
)

func smallMLPBench(b *testing.B) *snn.Network {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	w1 := tensor.NewMat(24, 40)
	w2 := tensor.NewMat(10, 24)
	for i := range w1.Data {
		w1.Data[i] = rng.NormFloat64() * 0.3
	}
	for i := range w2.Data {
		w2.Data[i] = rng.NormFloat64() * 0.3
	}
	l1, err := snn.NewDense("h", 40, 24, w1, 1)
	if err != nil {
		b.Fatal(err)
	}
	l2, err := snn.NewDense("o", 24, 10, w2, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snn.NewNetwork("bench", tensor.Shape3{H: 1, W: 1, C: 40}, l1, l2)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkCycleStep measures one cycle-level NeuroCell timestep of a small
// MLP in Ideal mode.
func BenchmarkCycleStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := smallMLPBench(b)
	cfg := mapping.DefaultConfig()
	cfg.MCASize = 16
	cfg.Tech = device.PCM
	m, err := mapping.Map(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := New(net, m, mpe.Ideal, xbar.Config{})
	if err != nil {
		b.Fatal(err)
	}
	in := bitvec.New(net.Input.Size())
	for i := 0; i < in.Len(); i++ {
		if rng.Float64() < 0.3 {
			in.Set(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(in)
	}
}

// BenchmarkSwitchNetUniform measures the packet-level fabric on uniform
// random traffic at the default FIFO depth.
func BenchmarkSwitchNetUniform(b *testing.B) {
	n, err := NewSwitchNet(4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	transfers := make([]Transfer, 128)
	for i := range transfers {
		transfers[i] = Transfer{SrcMPE: rng.Intn(16), DstMPE: rng.Intn(16)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Simulate(transfers, EventOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
