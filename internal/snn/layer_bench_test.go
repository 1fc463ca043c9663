// Per-layer kernel benchmarks on the Fig 10 networks: one recorded 48-step
// block of a real classification is replayed through a single layer's
// blocked kernel, so each layer can be timed apart without the rest of the
// network or the output decode.
package snn_test

import (
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

// BenchmarkLayer times one 48-step block (the sweep's classification
// length) of single layers of the Fig 10 networks (seed 1): conv1, pool1
// and conv2 of mnist-cnn, svhn-cnn and cifar-cnn, cifar-cnn's fc1, and all
// four dense layers of mnist-mlp. Each is fed the input raster recorded
// from one dataset image run through the whole network. Each op resets the
// layer's potentials and re-integrates the block, so ns/op is that layer's
// share of one image.
func BenchmarkLayer(b *testing.B) {
	const steps = 48
	for _, bc := range []struct {
		name   string
		layers []int
	}{
		{"mnist-cnn", []int{0, 1, 2}},
		{"svhn-cnn", []int{0, 1, 2}},
		{"cifar-cnn", []int{0, 1, 2, 4}},
		{"mnist-mlp", []int{0, 1, 2, 3}},
	} {
		bm, err := bench.ByName(bc.name)
		if err != nil {
			b.Fatal(err)
		}
		net, err := bm.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		set := dataset.Generate(bm.Dataset, 1, 101)
		img, err := bench.PrepareInput(set.Samples[0].Input, set.Shape, net.Input)
		if err != nil {
			b.Fatal(err)
		}
		var rec blockRecorder
		snn.NewState(net).RunBlockedK(bench.NormalizeIntensity(img), snn.NewPoissonEncoder(0.8, 5), steps, 0, &rec)
		for _, li := range bc.layers {
			// Layer names are "<network>/<layer>".
			b.Run(net.Layers[li].Name, func(b *testing.B) {
				st := snn.NewState(net)
				st.RunLayerBlock(li, rec.rasters[li])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Vmem[li].Fill(0)
					st.RunLayerBlock(li, rec.rasters[li])
				}
			})
		}
	}
}
