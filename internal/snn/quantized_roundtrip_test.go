// External test package: quant imports snn, so the quantized round-trip
// coverage for serialize.go lives here to avoid an import cycle.
package snn_test

import (
	"bytes"
	"math/rand"
	"testing"

	"resparc/internal/quant"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

func roundTripNetwork(t *testing.T, net *snn.Network) *snn.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := snn.WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := snn.ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func convPoolFixture(t *testing.T) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 10, W: 10, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 3}
	cw := tensor.NewMat(3, 9)
	for i := range cw.Data {
		cw.Data[i] = rng.NormFloat64() * 0.4
	}
	conv, err := snn.NewConv("conv", geom, cw, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := snn.NewPool("pool", tensor.Shape3{H: 10, W: 10, C: 3}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	dw := tensor.NewMat(4, 75)
	for i := range dw.Data {
		dw.Data[i] = rng.NormFloat64() * 0.4
	}
	fc, err := snn.NewDense("fc", 75, 4, dw, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := snn.NewNetwork("conv-pool-rt", geom.In, conv, pool, fc)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// assertIdenticalInference runs full classifications (Poisson encoding over
// many steps) through both networks and requires bit-identical outcomes:
// same prediction, same output spike counts, same first-spike latencies.
func assertIdenticalInference(t *testing.T, want, got *snn.Network, steps int) {
	t.Helper()
	ws, gs := snn.NewState(want), snn.NewState(got)
	n := want.Input.Size()
	for trial := 0; trial < 5; trial++ {
		in := make(tensor.Vec, n)
		for i := range in {
			in[i] = float64((trial*31+i*7)%100) / 99
		}
		enc := snn.NewPoissonEncoder(0.8, 11).ForkSeed(trial)
		enc2 := snn.NewPoissonEncoder(0.8, 11).ForkSeed(trial)
		wr, gr := ws.RunBlockedK(in, enc, steps, 0, nil), gs.RunBlockedK(in, enc2, steps, 0, nil)
		if wr.Prediction != gr.Prediction || wr.InputSpikes != gr.InputSpikes {
			t.Fatalf("trial %d: prediction %d/%d, input spikes %d/%d",
				trial, wr.Prediction, gr.Prediction, wr.InputSpikes, gr.InputSpikes)
		}
		for c := range wr.OutCounts {
			if wr.OutCounts[c] != gr.OutCounts[c] || wr.FirstSpike[c] != gr.FirstSpike[c] {
				t.Fatalf("trial %d class %d: counts %d/%d, first spike %d/%d",
					trial, c, wr.OutCounts[c], gr.OutCounts[c], wr.FirstSpike[c], gr.FirstSpike[c])
			}
		}
	}
}

// A conv+pool topology survives serialization with bit-identical inference.
func TestRoundTripConvPoolInference(t *testing.T) {
	net := convPoolFixture(t)
	got := roundTripNetwork(t, net)
	assertIdenticalInference(t, net, got, 24)
}

// A 4-bit quantized network survives serialization: the quantized weight
// levels are preserved exactly and inference after reload is bit-identical.
func TestRoundTripQuantizedNetwork(t *testing.T) {
	qnet, err := quant.QuantizeNetwork(convPoolFixture(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripNetwork(t, qnet)
	for i, l := range qnet.Layers {
		g := got.Layers[i]
		if (l.W == nil) != (g.W == nil) {
			t.Fatalf("layer %d weight presence mismatch", i)
		}
		if l.W == nil {
			continue
		}
		levels := make(map[float64]bool)
		for j := range l.W.Data {
			if g.W.Data[j] != l.W.Data[j] {
				t.Fatalf("layer %d weight %d: %v != %v", i, j, g.W.Data[j], l.W.Data[j])
			}
			levels[g.W.Data[j]] = true
		}
		// 4-bit quantization admits at most 2^4 - 1 = 15 signed levels.
		if len(levels) > 15 {
			t.Fatalf("layer %d has %d distinct weight levels after 4-bit quantization", i, len(levels))
		}
	}
	assertIdenticalInference(t, qnet, got, 24)
}
