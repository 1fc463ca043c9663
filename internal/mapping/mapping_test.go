package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resparc/internal/device"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

func denseLayer(t *testing.T, in, out int) *snn.Layer {
	t.Helper()
	w := tensor.NewMat(out, in)
	w.Data.Fill(0.1)
	l, err := snn.NewDense("d", in, out, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func convLayer(t *testing.T, geom tensor.ConvGeom) *snn.Layer {
	t.Helper()
	w := tensor.NewMat(geom.OutC, geom.FanIn())
	w.Data.Fill(0.1)
	l, err := snn.NewConv("c", geom, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func netOf(t *testing.T, input tensor.Shape3, layers ...*snn.Layer) *snn.Network {
	t.Helper()
	n, err := snn.NewNetwork("n", input, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func cfg(size int) Config {
	c := DefaultConfig()
	c.MCASize = size
	c.Tech = device.PCM // allows up to 256 for sweep tests
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := DefaultConfig()
	c.MCASize = 256 // exceeds Ag-Si max 128
	if err := c.Validate(); err == nil {
		t.Fatal("technology constraint not enforced")
	}
	c = DefaultConfig()
	c.MCASize = 1
	if err := c.Validate(); err == nil {
		t.Fatal("size 1 accepted")
	}
	c = DefaultConfig()
	c.MCAsPerMPE = 0
	if err := c.Validate(); err == nil {
		t.Fatal("0 MCAs/mPE accepted")
	}
}

func TestMapDenseExactFit(t *testing.T) {
	// 128 inputs x 128 outputs on 64x64: a 2x2 tile grid, fully utilized.
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 128}, denseLayer(t, 128, 128))
	m, err := Map(net, cfg(64))
	if err != nil {
		t.Fatal(err)
	}
	lm := m.Layers[0]
	if len(lm.MCAs) != 4 {
		t.Fatalf("MCAs = %d, want 4", len(lm.MCAs))
	}
	if lm.Groups != 2 || lm.MuxDegree != 2 {
		t.Fatalf("Groups=%d Mux=%d", lm.Groups, lm.MuxDegree)
	}
	if lm.Utilization != 1.0 {
		t.Fatalf("Utilization = %v, want 1", lm.Utilization)
	}
	if m.MPEs != 1 || m.NCs != 1 {
		t.Fatalf("MPEs=%d NCs=%d", m.MPEs, m.NCs)
	}
}

func TestMapDensePartialEdge(t *testing.T) {
	// 100x70 on 64: 2 col blocks x 2 row blocks; utilization < 1.
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 100}, denseLayer(t, 100, 70))
	m, err := Map(net, cfg(64))
	if err != nil {
		t.Fatal(err)
	}
	lm := m.Layers[0]
	if len(lm.MCAs) != 4 {
		t.Fatalf("MCAs = %d", len(lm.MCAs))
	}
	taps := 0
	for _, a := range lm.MCAs {
		taps += a.Taps
		if len(a.Inputs) > 64 || len(a.Outputs) > 64 {
			t.Fatalf("block exceeds array: %d in %d out", len(a.Inputs), len(a.Outputs))
		}
	}
	if taps != 100*70 {
		t.Fatalf("taps = %d, want %d", taps, 7000)
	}
	if lm.Utilization >= 1 || lm.Utilization <= 0 {
		t.Fatalf("Utilization = %v", lm.Utilization)
	}
}

// Fig 5's scenario: fan-in 4 neurons on 2x2 MCAs -> degree-2 multiplexing.
func TestMapDenseTimeMultiplexing(t *testing.T) {
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 4}, denseLayer(t, 4, 2))
	c := cfg(2)
	m, err := Map(net, c)
	if err != nil {
		t.Fatal(err)
	}
	lm := m.Layers[0]
	if lm.MuxDegree != 2 {
		t.Fatalf("MuxDegree = %d, want 2 (Fig 5b)", lm.MuxDegree)
	}
	if len(lm.MCAs) != 2 || lm.Groups != 1 {
		t.Fatalf("MCAs=%d Groups=%d", len(lm.MCAs), lm.Groups)
	}
}

// The paper's headline utilization effect: CNN mapping utilization falls as
// the MCA grows (input sharing cannot keep large arrays full), while MLP
// utilization stays near 1.
func TestUtilizationTrend(t *testing.T) {
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 28, W: 28, C: 1}, K: 5, Stride: 1, Pad: 0, OutC: 12}
	cnnNet := netOf(t, geom.In, convLayer(t, geom))
	mlpNet := netOf(t, tensor.Shape3{H: 1, W: 1, C: 784}, denseLayer(t, 784, 512))
	var cnnU, mlpU []float64
	for _, size := range []int{32, 64, 128} {
		mc, err := Map(cnnNet, cfg(size))
		if err != nil {
			t.Fatal(err)
		}
		cnnU = append(cnnU, mc.TotalUtilization())
		mm, err := Map(mlpNet, cfg(size))
		if err != nil {
			t.Fatal(err)
		}
		mlpU = append(mlpU, mm.TotalUtilization())
	}
	if !(cnnU[0] > cnnU[1] && cnnU[1] > cnnU[2]) {
		t.Fatalf("CNN utilization should fall with size: %v", cnnU)
	}
	for i, u := range mlpU {
		if u < 0.85 {
			t.Fatalf("MLP utilization[%d] = %v, want near 1", i, u)
		}
	}
	if cnnU[2] >= mlpU[2] {
		t.Fatalf("CNN utilization (%v) must trail MLP (%v) at 128", cnnU[2], mlpU[2])
	}
}

// Every connectivity tap must land on exactly one MCA, per output neuron.
func TestSparseMappingCoversAllTaps(t *testing.T) {
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 10, W: 10, C: 2}, K: 3, Stride: 1, Pad: 1, OutC: 4}
	l := convLayer(t, geom)
	net := netOf(t, geom.In, l)
	m, err := Map(net, cfg(32))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: in-bounds fan-in per output.
	out, _ := geom.OutShape()
	wantPerOut := make(map[int]int)
	_ = geom.ForEachTap(func(outIdx, inIdx, _ int) {
		if inIdx >= 0 {
			wantPerOut[outIdx]++
		}
	})
	gotPerOut := make(map[int]int)
	for _, a := range m.Layers[0].MCAs {
		// Each MCA contributes |inputs ∩ receptive field| per output; Taps
		// aggregates them, so reconstruct per-output from the block
		// structure: outputs in a block share the block's input set
		// restricted to their own receptive field. For coverage we count
		// via Taps distribution: total taps must match.
		_ = a
	}
	totalWant := 0
	for _, v := range wantPerOut {
		totalWant += v
	}
	totalGot := 0
	seenOutputs := make(map[int32]int)
	for _, a := range m.Layers[0].MCAs {
		totalGot += a.Taps
		for _, o := range a.Outputs {
			seenOutputs[o]++
		}
	}
	if totalGot != totalWant {
		t.Fatalf("taps mapped %d, want %d", totalGot, totalWant)
	}
	// Every output neuron appears in at least one MCA and outputs never
	// repeat within a group... with full fan-in per location each output
	// appears exactly once.
	if len(seenOutputs) != out.Size() {
		t.Fatalf("outputs covered %d, want %d", len(seenOutputs), out.Size())
	}
	for o, cnt := range seenOutputs {
		if cnt != 1 {
			t.Fatalf("output %d mapped %d times", o, cnt)
		}
	}
	_ = gotPerOut
}

// Fan-in larger than the array splits a location into a time-multiplexed
// group.
func TestSparseSplitLargeFanIn(t *testing.T) {
	// Fan-in = 5*5*8 = 200 > 32 rows.
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 8, W: 8, C: 8}, K: 5, Stride: 1, Pad: 0, OutC: 4}
	net := netOf(t, geom.In, convLayer(t, geom))
	m, err := Map(net, cfg(32))
	if err != nil {
		t.Fatal(err)
	}
	lm := m.Layers[0]
	if lm.MuxDegree < (200+31)/32 {
		t.Fatalf("MuxDegree = %d, want >= %d", lm.MuxDegree, (200+31)/32)
	}
	for _, a := range lm.MCAs {
		if len(a.Inputs) > 32 || len(a.Outputs) > 32 {
			t.Fatalf("split block exceeds array")
		}
	}
}

func TestMapPoolLayer(t *testing.T) {
	p, err := snn.NewPool("p", tensor.Shape3{H: 8, W: 8, C: 4}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	net := netOf(t, tensor.Shape3{H: 8, W: 8, C: 4}, p)
	m, err := Map(net, cfg(32))
	if err != nil {
		t.Fatal(err)
	}
	taps := 0
	for _, a := range m.Layers[0].MCAs {
		taps += a.Taps
	}
	if taps != p.Synapses() {
		t.Fatalf("pool taps %d, want %d", taps, p.Synapses())
	}
}

func TestPlacementAndCrossNC(t *testing.T) {
	// Two small layers fit one NC: layer 1 should not cross NC.
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 128},
		denseLayer(t, 128, 128), denseLayer(t, 128, 64))
	m, err := Map(net, cfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if !m.CrossNC(0) {
		t.Fatal("layer 0 always loads via the bus")
	}
	if m.CrossNC(1) {
		t.Fatal("small consecutive layers in one NC must use the switch network")
	}
	// Layers must start on fresh mPEs and be contiguous.
	if m.Layers[1].MPEFirst <= m.Layers[0].MPELast &&
		m.Layers[1].MPEFirst != m.Layers[0].MPELast+1 {
		t.Fatalf("layer placement overlaps: %+v %+v", m.Layers[0], m.Layers[1])
	}

	// A large layer spanning several NCs forces bus transfers.
	big := netOf(t, tensor.Shape3{H: 1, W: 1, C: 2048},
		denseLayer(t, 2048, 2048), denseLayer(t, 2048, 10))
	mb, err := Map(big, cfg(64))
	if err != nil {
		t.Fatal(err)
	}
	if mb.NCs < 2 {
		t.Fatalf("big net NCs = %d, expected several", mb.NCs)
	}
	if !mb.CrossNC(1) {
		t.Fatal("layer following a multi-NC layer must use the bus")
	}
}

func TestMapErrors(t *testing.T) {
	empty, _ := snn.NewNetwork("e", tensor.Shape3{H: 1, W: 1, C: 4})
	if _, err := Map(empty, cfg(64)); err == nil {
		t.Fatal("empty network accepted")
	}
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 4}, denseLayer(t, 4, 4))
	bad := cfg(64)
	bad.MCASize = 0
	if _, err := Map(net, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// Property: for random dense layers, every MCA respects the array bounds,
// groups tile the outputs exactly, and taps total the synapse count.
func TestMapDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := 1 + rng.Intn(300)
		out := 1 + rng.Intn(300)
		size := []int{16, 32, 64}[rng.Intn(3)]
		w := tensor.NewMat(out, in)
		l, err := snn.NewDense("d", in, out, w, 1)
		if err != nil {
			return false
		}
		net, err := snn.NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: in}, l)
		if err != nil {
			return false
		}
		m, err := Map(net, cfg(size))
		if err != nil {
			return false
		}
		lm := m.Layers[0]
		taps := 0
		outCover := map[int32]int{}
		for _, a := range lm.MCAs {
			if len(a.Inputs) > size || len(a.Outputs) > size || len(a.Inputs) == 0 || len(a.Outputs) == 0 {
				return false
			}
			taps += a.Taps
		}
		// Each group covers each of its outputs MuxDegree times in total
		// across row blocks; count distinct outputs once per group.
		for _, a := range lm.MCAs {
			if a.Group < 0 || a.Group >= lm.Groups {
				return false
			}
		}
		for _, a := range lm.MCAs {
			for _, o := range a.Outputs {
				outCover[o]++
			}
		}
		for o := int32(0); o < int32(out); o++ {
			if outCover[o] == 0 {
				return false
			}
		}
		return taps == in*out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Map's output is always well-formed; mutations are caught.
func TestValidate(t *testing.T) {
	net := netOf(t, tensor.Shape3{H: 1, W: 1, C: 100},
		denseLayer(t, 100, 80), denseLayer(t, 80, 10))
	m, err := Map(net, cfg(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh mapping invalid: %v", err)
	}
	// Mutations must be rejected.
	mutate := func(f func(*Mapping)) error {
		m2, err := Map(net, cfg(32))
		if err != nil {
			t.Fatal(err)
		}
		f(m2)
		return m2.Validate()
	}
	if err := mutate(func(m *Mapping) { m.Layers[0].MCAs[0].Taps = -1 }); err == nil {
		t.Error("negative taps accepted")
	}
	if err := mutate(func(m *Mapping) { m.Layers[0].MCAs[0].Outputs[0] = 9999 }); err == nil {
		t.Error("out-of-range output accepted")
	}
	if err := mutate(func(m *Mapping) { m.Layers[0].MCAs[0].MPE = 500 }); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if err := mutate(func(m *Mapping) {
		m.Layers[0].MCAs = m.Layers[0].MCAs[:1]
	}); err == nil {
		t.Error("missing output coverage accepted")
	}
	if err := mutate(func(m *Mapping) { m.Layers[1].MPEFirst = 0 }); err == nil {
		t.Error("overlapping placement accepted")
	}
}

// Property: every mapping produced by Map validates, across layer kinds
// and sizes.
func TestMapAlwaysValidates(t *testing.T) {
	geom := tensor.ConvGeom{In: tensor.Shape3{H: 12, W: 12, C: 1}, K: 3, Stride: 1, Pad: 1, OutC: 6}
	conv := convLayer(t, geom)
	pool, err := snn.NewPool("p", tensor.Shape3{H: 12, W: 12, C: 6}, 2, 0.499)
	if err != nil {
		t.Fatal(err)
	}
	fc := denseLayer(t, 216, 10)
	net := netOf(t, geom.In, conv, pool, fc)
	for _, size := range []int{8, 16, 32, 64} {
		m, err := Map(net, cfg(size))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}
