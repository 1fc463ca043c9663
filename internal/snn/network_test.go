package snn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"resparc/internal/tensor"
)

func mustDense(t *testing.T, in, out int, fill float64, th float64) *Layer {
	t.Helper()
	w := tensor.NewMat(out, in)
	w.Data.Fill(fill)
	l, err := NewDense("d", in, out, w, th)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayerKindString(t *testing.T) {
	if DenseLayer.String() != "dense" || ConvLayer.String() != "conv" || PoolLayer.String() != "pool" {
		t.Fatal("LayerKind.String wrong")
	}
	if LayerKind(9).String() != "LayerKind(9)" {
		t.Fatal("unknown kind")
	}
}

func TestNewDenseValidation(t *testing.T) {
	w := tensor.NewMat(3, 4)
	if _, err := NewDense("x", 4, 3, w, 1); err != nil {
		t.Fatalf("valid dense rejected: %v", err)
	}
	if _, err := NewDense("x", 5, 3, w, 1); err == nil {
		t.Fatal("wrong cols accepted")
	}
	if _, err := NewDense("x", 4, 3, nil, 1); err == nil {
		t.Fatal("nil weights accepted")
	}
	if _, err := NewDense("x", 4, 3, w, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestNewConvValidation(t *testing.T) {
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 8, W: 8, C: 2}, K: 3, Stride: 1, Pad: 0, OutC: 4}
	w := tensor.NewMat(4, 18)
	if _, err := NewConv("c", geom, w, 1); err != nil {
		t.Fatalf("valid conv rejected: %v", err)
	}
	if _, err := NewConv("c", geom, tensor.NewMat(4, 9), 1); err == nil {
		t.Fatal("wrong kernel size accepted")
	}
	bad := geom
	bad.K = 0
	if _, err := NewConv("c", bad, w, 1); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if _, err := NewConv("c", geom, w, -1); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool("p", tensor.Shape3{H: 8, W: 8, C: 3}, 2, 0.499); err != nil {
		t.Fatalf("valid pool rejected: %v", err)
	}
	if _, err := NewPool("p", tensor.Shape3{H: 8, W: 8, C: 3}, 0, 0.499); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewPool("p", tensor.Shape3{H: 8, W: 8, C: 3}, 2, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestFanInAndSynapses(t *testing.T) {
	d := mustDense(t, 100, 50, 0.1, 1)
	if d.FanIn() != 100 || d.Synapses() != 5000 {
		t.Fatalf("dense FanIn=%d Synapses=%d", d.FanIn(), d.Synapses())
	}

	geom := tensor.ConvGeom{In: tensor.Shape3{H: 10, W: 10, C: 3}, K: 3, Stride: 1, Pad: 0, OutC: 8}
	w := tensor.NewMat(8, 27)
	c, err := NewConv("c", geom, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.FanIn() != 27 {
		t.Fatalf("conv FanIn=%d", c.FanIn())
	}
	wantConns, _ := geom.Connections()
	if c.Synapses() != wantConns {
		t.Fatalf("conv Synapses=%d want %d", c.Synapses(), wantConns)
	}

	p, err := NewPool("p", tensor.Shape3{H: 8, W: 8, C: 2}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	if p.FanIn() != 4 || p.Synapses() != 4*4*2*4 {
		t.Fatalf("pool FanIn=%d Synapses=%d", p.FanIn(), p.Synapses())
	}
	if p.PoolWeight() != 0.25 {
		t.Fatalf("PoolWeight=%v", p.PoolWeight())
	}
}

func TestNewNetworkValidation(t *testing.T) {
	l1 := mustDense(t, 4, 8, 0.1, 1)
	l2 := mustDense(t, 8, 2, 0.1, 1)
	if _, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l1, l2); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	if _, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 5}, l1, l2); err == nil {
		t.Fatal("input mismatch accepted")
	}
	if _, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l2, l1); err == nil {
		t.Fatal("inter-layer mismatch accepted")
	}
}

func TestNetworkCounts(t *testing.T) {
	l1 := mustDense(t, 4, 8, 0.1, 1)
	l2 := mustDense(t, 8, 2, 0.1, 1)
	n, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 4}, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Neurons() != 14 {
		t.Fatalf("Neurons=%d", n.Neurons())
	}
	if n.HiddenNeurons() != 10 {
		t.Fatalf("HiddenNeurons=%d", n.HiddenNeurons())
	}
	if n.Synapses() != 4*8+8*2 {
		t.Fatalf("Synapses=%d", n.Synapses())
	}
	if n.OutSize() != 2 {
		t.Fatalf("OutSize=%d", n.OutSize())
	}
	empty, _ := NewNetwork("e", tensor.Shape3{H: 1, W: 1, C: 4})
	if empty.OutSize() != 4 {
		t.Fatalf("empty OutSize=%d", empty.OutSize())
	}
}

// The oracle's CSR adjacency (oracle_test.go) must contain exactly the
// in-bounds taps of ConvGeom.
func TestBuildAdjacencyMatchesGeometry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geom := tensor.ConvGeom{
			In:     tensor.Shape3{H: 4 + rng.Intn(4), W: 4 + rng.Intn(4), C: 1 + rng.Intn(2)},
			K:      1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(2),
			OutC:   1 + rng.Intn(3),
		}
		if _, err := geom.OutShape(); err != nil {
			return true
		}
		w := tensor.NewMat(geom.OutC, geom.FanIn())
		l, err := NewConv("c", geom, w, 1)
		if err != nil {
			return false
		}
		adj := makeAdjacency(l)
		// Reference: count in-bounds taps per input.
		type tap struct{ out, k int }
		ref := make(map[int][]tap)
		total := 0
		_ = geom.ForEachTap(func(outIdx, inIdx, kIdx int) {
			if inIdx < 0 {
				return
			}
			ref[inIdx] = append(ref[inIdx], tap{outIdx, kIdx})
			total++
		})
		if len(adj.out) != total {
			return false
		}
		for in := 0; in < l.InSize(); in++ {
			taps := ref[in]
			if int(adj.start[in+1]-adj.start[in]) != len(taps) {
				return false
			}
			seen := make(map[tap]bool)
			for p := adj.start[in]; p < adj.start[in+1]; p++ {
				seen[tap{int(adj.out[p]), int(adj.kidx[p])}] = true
			}
			for _, tp := range taps {
				if !seen[tp] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkSummary(t *testing.T) {
	l1 := mustDense(t, 4, 8, 0.1, 1)
	l1.Leak = 0.2
	l2 := mustDense(t, 8, 2, 0.1, 0.5)
	l2.HardReset = true
	n, err := NewNetwork("demo", tensor.Shape3{H: 2, W: 2, C: 1}, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Summary()
	for _, want := range []string{"demo", "10 neurons", "48 synapses", "dense", "leak=0.2", "hard-reset", "th=0.5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
