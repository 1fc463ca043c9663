package bench

import (
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// findBenchmark returns the named Fig 10 benchmark.
func findBenchmark(tb testing.TB, name string) Benchmark {
	tb.Helper()
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	tb.Fatalf("benchmark %q not in Fig 10 suite", name)
	return Benchmark{}
}

// benchInputs draws the same synthetic dataset images, prepared and
// normalized the same way, as the experiments perfsuite behind
// BENCH_RESULTS.json (Config seed 1: dataset seed 101), so local benchmark
// numbers track the committed eval rows' workload including its sparsity.
func benchInputs(tb testing.TB, bm Benchmark, net *snn.Network, n int) []tensor.Vec {
	tb.Helper()
	set := dataset.Generate(bm.Dataset, n, 101)
	out := make([]tensor.Vec, len(set.Samples))
	for i, s := range set.Samples {
		in, err := PrepareInput(s.Input, set.Shape, net.Input)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = NormalizeIntensity(in)
	}
	return out
}

// BenchmarkEvalMnistCNNSerial measures the calibrated mnist-cnn Fig 10
// network — the real workload behind BENCH_RESULTS.json's eval/mnist-cnn
// rows — through snn.RunBatch. One op classifies 3 images over 48 timesteps
// on a single worker.
func BenchmarkEvalMnistCNNSerial(b *testing.B) {
	bm := findBenchmark(b, "mnist-cnn")
	net, err := bm.Build(1)
	if err != nil {
		b.Fatal(err)
	}
	inputs := benchInputs(b, bm, net, 3)
	base := snn.NewPoissonEncoder(EncoderPeak, 8)
	enc := func(i int) snn.Encoder { return base.ForkSeed(i) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snn.RunBatch(net, inputs, enc, 48, snn.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures Build on the three Fig 10 CNNs: weight fill plus
// the threshold calibration that steps every layer over the frontier spike
// train — the setup cost every study pays before its first classification.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"mnist-cnn", "svhn-cnn", "cifar-cnn"} {
		bm := findBenchmark(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bm.Build(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A warm State.Step allocates nothing: Step is a one-timestep blocked run,
// and every scratch buffer it touches lives in the State.
func TestStepAllocFree(t *testing.T) {
	for _, name := range []string{"mnist-cnn", "mnist-mlp"} {
		bm := findBenchmark(t, name)
		net, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		img := benchInputs(t, bm, net, 1)[0]
		enc := snn.NewPoissonEncoder(EncoderPeak, 3)
		in := bitvec.New(net.Input.Size())
		st := snn.NewState(net)
		step := func() {
			enc.Encode(img, in)
			st.Step(in)
		}
		for i := 0; i < 48; i++ { // pack the panels and size the scratch
			step()
		}
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("%s: warm Step allocates %.0f objects, want 0", name, allocs)
		}
	}
}
