package mapping

import (
	"testing"

	"resparc/internal/bench"
	"resparc/internal/device"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// BenchmarkMapDense measures tiling a 784x1024 dense layer onto 64x64
// arrays.
func BenchmarkMapDense(b *testing.B) {
	w := tensor.NewMat(1024, 784)
	l, err := snn.NewDense("d", 784, 1024, w, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snn.NewNetwork("bench", tensor.Shape3{H: 1, W: 1, C: 784}, l)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tech = device.PCM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapConv measures the input-sharing sparse packer on a
// 28x28 3x3x32 convolution.
func BenchmarkMapConv(b *testing.B) {
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 28, W: 28, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 32}
	w := tensor.NewMat(32, 9)
	l, err := snn.NewConv("c", geom, w, 1)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snn.NewNetwork("bench", geom.In, l)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tech = device.PCM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNets builds the named Fig 10 networks with weight seed 1.
func benchNets(b *testing.B, names ...string) []*snn.Network {
	b.Helper()
	nets := make([]*snn.Network, len(names))
	for i, name := range names {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if nets[i], err = bm.Build(1); err != nil {
			b.Fatal(err)
		}
	}
	return nets
}

// BenchmarkPlan times the annealed planner (default iterations and chains,
// four chips) on mnist-cnn and cifar-cnn: every candidate's layouts, probe
// statistics and pipeline makespan.
func BenchmarkPlan(b *testing.B) {
	names := []string{"mnist-cnn", "cifar-cnn"}
	for i, net := range benchNets(b, names...) {
		b.Run(names[i], func(b *testing.B) {
			cons := DefaultConstraints(DefaultConfig())
			cons.Shards = 4
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := (Annealed{Seed: 1}).Plan(net, cons); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayerMapping times building the position-free layout of every
// layer of the six Fig 10 networks at MCA sizes 32, 64, 128 and 256.
func BenchmarkLayerMapping(b *testing.B) {
	var names []string
	for _, bm := range bench.All() {
		names = append(names, bm.Name)
	}
	nets := benchNets(b, names...)
	c := DefaultConfig()
	c.Tech = device.PCM
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, net := range nets {
			for _, n := range []int{32, 64, 128, 256} {
				for li, l := range net.Layers {
					if _, err := layerMappingFor(li, l, c, n); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}
