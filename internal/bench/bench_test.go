package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// The Fig 10 reproduction: every benchmark's neuron and synapse totals must
// match the published numbers within 0.1%.
func TestFig10Totals(t *testing.T) {
	for _, b := range All() {
		net, err := b.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(net.Layers) != b.PubLayers {
			t.Errorf("%s: %d layers, published %d", b.Name, len(net.Layers), b.PubLayers)
		}
		n := net.HiddenNeurons()
		s := net.Synapses()
		if rel(n, b.PubNeurons) > 0.001 {
			t.Errorf("%s: %d neurons, published %d (%.3f%%)", b.Name, n, b.PubNeurons, 100*rel(n, b.PubNeurons))
		}
		if rel(s, b.PubSynapses) > 0.001 {
			t.Errorf("%s: %d synapses, published %d (%.3f%%)", b.Name, s, b.PubSynapses, 100*rel(s, b.PubSynapses))
		}
	}
}

func rel(got, want int) float64 {
	return math.Abs(float64(got-want)) / float64(want)
}

func TestRosterShape(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("%d benchmarks, want 6", len(All()))
	}
	if len(MLPs()) != 3 || len(CNNs()) != 3 {
		t.Fatal("family split broken")
	}
	for _, b := range MLPs() {
		if b.Connectivity != "MLP" {
			t.Fatalf("%s in MLP family", b.Name)
		}
	}
	for _, b := range CNNs() {
		if b.Connectivity != "CNN" {
			t.Fatalf("%s in CNN family", b.Name)
		}
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Fatalf("duplicate %s", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("mnist-mlp")
	if err != nil || b.Name != "mnist-mlp" {
		t.Fatalf("ByName: %v %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	b, _ := ByName("mnist-mlp")
	n1, err := b.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := b.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	for li := range n1.Layers {
		for i := range n1.Layers[li].W.Data {
			if n1.Layers[li].W.Data[i] != n2.Layers[li].W.Data[i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	n3, _ := b.Build(8)
	if n3.Layers[0].W.Data[0] == n1.Layers[0].W.Data[0] {
		t.Fatal("different seeds produced identical first weight")
	}
}

// Threshold balancing must produce live but not saturated hidden-layer
// spike rates on real synthetic inputs — the statistic the Figs 11-13
// simulations stand on.
func TestSpikeRatesHealthy(t *testing.T) {
	for _, b := range []string{"mnist-mlp", "mnist-cnn"} {
		bm, _ := ByName(b)
		net, err := bm.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		set := dataset.Generate(bm.Dataset, 3, 3)
		st := snn.NewState(net)
		enc := snn.NewPoissonEncoder(0.6, 4)
		const steps = 40
		spikes := make([]int, len(net.Layers))
		for _, smp := range set.Samples {
			in, err := PrepareInput(smp.Input, set.Shape, net.Input)
			if err != nil {
				t.Fatal(err)
			}
			st.Reset()
			ibv := bitvec.New(len(in))
			for s := 0; s < steps; s++ {
				enc.Encode(in, ibv)
				st.Step(ibv)
				for li := range net.Layers {
					spikes[li] += st.LayerSpikes(li).Count()
				}
			}
		}
		for li, l := range net.Layers {
			rate := float64(spikes[li]) / float64(l.OutSize()*steps*len(set.Samples))
			if rate < 0.005 || rate > 0.6 {
				t.Errorf("%s layer %d (%s): spike rate %.4f out of healthy band", b, li, l.Name, rate)
			}
		}
	}
}

func TestPrepareInput(t *testing.T) {
	// RGB -> grayscale flat.
	from := tensor.Shape3{H: 2, W: 2, C: 3}
	img := tensor.Vec{
		0.3, 0.6, 0.9, // (0,0)
		1, 1, 1, // (0,1)
		0, 0, 0, // (1,0)
		0.5, 0.5, 0.5, // (1,1)
	}
	out, err := PrepareInput(img, from, tensor.Shape3{H: 1, W: 1, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.6) > 1e-12 || out[1] != 1 || out[2] != 0 || out[3] != 0.5 {
		t.Fatalf("grayscale flat = %v", out)
	}
	// RGB -> grayscale same spatial shape.
	out, err = PrepareInput(img, from, tensor.Shape3{H: 2, W: 2, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.6) > 1e-12 {
		t.Fatalf("grayscale = %v", out)
	}
	// Identity.
	same, err := PrepareInput(img, from, from)
	if err != nil || &same[0] != &img[0] {
		t.Fatal("identity must return the input")
	}
	// Incompatible.
	if _, err := PrepareInput(img, from, tensor.Shape3{H: 5, W: 5, C: 1}); err == nil {
		t.Fatal("incompatible shapes accepted")
	}
}

// TestBuildPinned pins every calibrated Fig 10 network byte for byte: the
// sha256 of its serialized form at seed 1 must not move. Threshold
// calibration is a chain of float roundings over simulated spike counts, so
// any change to the functional runner or the calibration loop that is not
// bit-exact shows up here. The hashes hold on amd64 only: Go fuses
// multiply-adds into FMA instructions on arm64 (and other targets), which
// rounds differently.
func TestBuildPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes recorded on amd64; %s may fuse multiply-adds (FMA)", runtime.GOARCH)
	}
	want := map[string]string{
		"svhn-mlp":  "7e2e0a7d67bed9b3d00cdfbc1dcf297d8b88285a4d85540948ce12063210854c",
		"svhn-cnn":  "216415cd6d02fd4fdce365793e5f2a6009da6849e2a3bd40a424df2ab4090fae",
		"mnist-mlp": "8646c681384805a475da0d7919f0f393ced77886ca94b5de241d9995c1d4fb79",
		"mnist-cnn": "ae32bfb5e718e21bf7bde86ac0d8e3315dbf49d364974f30304e5ab6d7d73efc",
		"cifar-mlp": "32153464e99f3604dfc4dbab1db49025088f78a6bec82238070d683233a81790",
		"cifar-cnn": "10398b8a0f38ee0b9b79668aa87561b9da30dce2e0f21d00b66346ec16d1386e",
	}
	for _, b := range All() {
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snn.WriteNetwork(&buf, net); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[b.Name] {
			t.Errorf("%s: sha256 %s, want %s", b.Name, got, want[b.Name])
		}
	}
}
