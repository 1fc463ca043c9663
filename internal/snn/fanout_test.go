// Property suite for the closed-form conv/pool fan-out table behind
// Layer.FanOut and Layer.ActiveSynOps: both must equal the row lengths of
// the oracle's CSR adjacency (oracle_test.go) for every input neuron.
package snn_test

import (
	"math/rand"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// assertFanOutMatchesOracle checks FanOut for every input (plus the
// out-of-range guards) and ActiveSynOps for a few random spike vectors.
func assertFanOutMatchesOracle(t *testing.T, l *snn.Layer) {
	t.Helper()
	want := snn.OracleFanOut(l)
	for i, n := range want {
		if got := l.FanOut(i); got != int(n) {
			t.Fatalf("%s %s %+v: FanOut(%d) = %d, oracle %d", l.Kind, l.Name, l.Geom, i, got, n)
		}
	}
	if l.FanOut(-1) != 0 || l.FanOut(l.InSize()) != 0 {
		t.Fatalf("%s %s: out-of-range FanOut must be 0", l.Kind, l.Name)
	}
	rng := rand.New(rand.NewSource(int64(l.InSize())))
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		in := bitvec.New(l.InSize())
		ops := 0
		for i, n := range want {
			if rng.Float64() < p {
				in.Set(i)
				ops += int(n)
			}
		}
		if got := l.ActiveSynOps(in); got != ops {
			t.Fatalf("%s %s %+v: ActiveSynOps at p=%v = %d, oracle %d", l.Kind, l.Name, l.Geom, p, got, ops)
		}
	}
}

// The six conv and pool layers of the Fig 10 CNN benchmarks.
func TestFanOutMatchesOracleFig10(t *testing.T) {
	layers := 0
	for _, b := range bench.CNNs() {
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range net.Layers {
			if l.Kind != snn.DenseLayer {
				assertFanOutMatchesOracle(t, l)
				layers++
			}
		}
	}
	if layers == 0 {
		t.Fatal("no conv/pool layers in the Fig 10 CNNs")
	}
}

// Odd geometries: strides 2 and 3, padding 0 and 2, kernels 4 and 5,
// non-square inputs (where the window grid leaves inputs uncovered) and
// multi-channel pools.
func TestFanOutMatchesOracleOddGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []tensor.ConvGeom{
		{In: tensor.Shape3{H: 9, W: 7, C: 2}, K: 3, Stride: 2, Pad: 0, OutC: 5},
		{In: tensor.Shape3{H: 11, W: 8, C: 3}, K: 4, Stride: 3, Pad: 2, OutC: 4},
		{In: tensor.Shape3{H: 6, W: 13, C: 1}, K: 5, Stride: 2, Pad: 2, OutC: 9},
		{In: tensor.Shape3{H: 10, W: 10, C: 2}, K: 5, Stride: 3, Pad: 0, OutC: 3},
		{In: tensor.Shape3{H: 7, W: 5, C: 4}, K: 4, Stride: 1, Pad: 2, OutC: 2},
		{In: tensor.Shape3{H: 5, W: 5, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 1},
	} {
		w := tensor.NewMat(g.OutC, g.FanIn())
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		l, err := snn.NewConv("conv", g, w, 1)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		assertFanOutMatchesOracle(t, l)
	}
	for _, p := range []struct {
		in tensor.Shape3
		k  int
	}{
		{tensor.Shape3{H: 8, W: 6, C: 3}, 2},
		{tensor.Shape3{H: 9, W: 7, C: 5}, 3},
		{tensor.Shape3{H: 12, W: 9, C: 2}, 4},
		{tensor.Shape3{H: 11, W: 15, C: 11}, 5},
	} {
		l, err := snn.NewPool("pool", p.in, p.k, 0.5)
		if err != nil {
			t.Fatalf("pool %v k=%d: %v", p.in, p.k, err)
		}
		assertFanOutMatchesOracle(t, l)
	}
}
