// Per-layer kernel benchmarks on the Fig 10 networks: one recorded 48-step
// block of a real classification is replayed through a single layer's
// blocked kernel, so each layer can be timed apart without the rest of the
// network or the output decode.
package snn_test

import (
	"fmt"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/snn"
)

// blockRecorder keeps a copy of every step's input and layer rasters.
type blockRecorder struct {
	rasters [][]*bitvec.Bits // [0] input, [li+1] layer li; one vector per step
}

func (r *blockRecorder) ObserveStep(_ int, input *bitvec.Bits, layers []*bitvec.Bits) {
	if r.rasters == nil {
		r.rasters = make([][]*bitvec.Bits, len(layers)+1)
	}
	r.rasters[0] = append(r.rasters[0], input.Clone())
	for li, l := range layers {
		r.rasters[li+1] = append(r.rasters[li+1], l.Clone())
	}
}

// recordBlocks runs the first n dataset images (seed 101) of benchmark name
// (weights seed 1) through the whole network for one block of steps and
// returns the network with each image's recorded rasters.
func recordBlocks(b *testing.B, name string, n, steps int) (*snn.Network, []blockRecorder) {
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	net, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	set := dataset.Generate(bm.Dataset, n, 101)
	recs := make([]blockRecorder, n)
	for i := range recs {
		img, err := bench.PrepareInput(set.Samples[i].Input, set.Shape, net.Input)
		if err != nil {
			b.Fatal(err)
		}
		snn.NewState(net).RunBlockedK(bench.NormalizeIntensity(img), snn.NewPoissonEncoder(0.8, 5), steps, 0, &recs[i])
	}
	return net, recs
}

// mlpDense lists the dense layers of the three MLPs (fc0 is the input
// layer; cifar-mlp fc2 is the costliest MLP layer).
var mlpDense = []struct {
	name   string
	layers []int
}{
	{"mnist-mlp", []int{0, 1, 2, 3}},
	{"svhn-mlp", []int{0, 1, 2, 3}},
	{"cifar-mlp", []int{0, 1, 2, 3}},
}

// BenchmarkLayer times one 48-step block (the sweep's classification
// length) of single layers of the Fig 10 networks (seed 1): conv1, pool1
// and conv2 of mnist-cnn, svhn-cnn and cifar-cnn, cifar-cnn's fc1, and all
// four dense layers of each MLP. Each is fed the input raster recorded from
// one dataset image run through the whole network. Each op resets the
// layer's potentials and re-integrates the block, so ns/op is that layer's
// share of one image.
func BenchmarkLayer(b *testing.B) {
	const steps = 48
	cases := append([]struct {
		name   string
		layers []int
	}{
		{"mnist-cnn", []int{0, 1, 2}},
		{"svhn-cnn", []int{0, 1, 2}},
		{"cifar-cnn", []int{0, 1, 2, 4}},
	}, mlpDense...)
	for _, bc := range cases {
		net, recs := recordBlocks(b, bc.name, 1, steps)
		for _, li := range bc.layers {
			// Layer names are "<network>/<layer>".
			b.Run(net.Layers[li].Name, func(b *testing.B) {
				st := snn.NewState(net)
				st.LoadLayerInput(li, recs[0].rasters[li])
				ms := []snn.Member{{State: st}}
				snn.RunLayer(ms, li, steps)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Vmem[li].Fill(0)
					snn.RunLayer(ms, li, steps)
				}
			})
		}
	}
}

// BenchmarkLayerGroup times the MLP dense layers of BenchmarkLayer on four
// images' recorded blocks, run one at a time (G=1) or as one
// weight-stationary group (G=4, each weight panel streamed once for all
// four). Both do the same four images per op; ns/img is the per-image
// share.
func BenchmarkLayerGroup(b *testing.B) {
	const steps, n = 48, 4
	for _, bc := range mlpDense {
		net, recs := recordBlocks(b, bc.name, n, steps)
		for _, li := range bc.layers {
			ms := make([]snn.Member, n)
			for i := range ms {
				ms[i].State = snn.NewState(net)
				ms[i].State.LoadLayerInput(li, recs[i].rasters[li])
			}
			for _, g := range []int{1, n} {
				b.Run(fmt.Sprintf("%s/G=%d", net.Layers[li].Name, g), func(b *testing.B) {
					run := func() {
						for _, m := range ms {
							m.State.Vmem[li].Fill(0)
						}
						for m0 := 0; m0 < n; m0 += g {
							snn.RunLayer(ms[m0:m0+g], li, steps)
						}
					}
					run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/img")
				})
			}
		}
	}
}
