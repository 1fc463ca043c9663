package snn_test

import (
	"math"
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// partialGroupFixture builds conv -> conv -> dense 65 -> dense 10 on an
// 8x8x24 input, where every layer's output count leaves a partial last
// 8-lane group: the convs have OutC wideC and narrowC (7 and 15 either
// way round; conv1 reads 24 channels through the wide gather, conv2 the
// flat lists), the dense layers 65 and 10 rows. 8x8x7 = 448 and 8x8x15 = 960 outputs end exactly on a
// 64-bit word boundary, so the last group's fire byte starts at bit 57 of
// the raster's final word. leak, hard and the threshold th apply to every
// layer; with th <= 0 the unused lanes of a partial group fire on every
// step, so committing them would set a neighbouring neuron's bit.
func partialGroupFixture(t *testing.T, wideC, narrowC int, leak float64, hard bool, th float64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(97 + wideC)))
	fill := func(rows, cols int, bias float64) *tensor.Mat {
		w := tensor.NewMat(rows, cols)
		for i := range w.Data {
			w.Data[i] = (rng.NormFloat64() + bias) * 2 / math.Sqrt(float64(cols))
		}
		return w
	}
	// Excitatory weights under a positive threshold, inhibitory under a
	// negative one, so that no layer fires on every step.
	bias := math.Copysign(0.3, th)
	in := tensor.Shape3{H: 8, W: 8, C: 24}
	g1 := tensor.ConvGeom{In: in, K: 3, Stride: 1, Pad: 1, OutC: wideC} // 72-bit kernel rows: wide gather
	conv1, err := snn.NewConv("conv1", g1, fill(wideC, g1.FanIn(), bias), 1)
	if err != nil {
		t.Fatal(err)
	}
	g2 := tensor.ConvGeom{In: conv1.Out, K: 3, Stride: 1, Pad: 1, OutC: narrowC} // <= 45-bit rows: narrow
	conv2, err := snn.NewConv("conv2", g2, fill(narrowC, g2.FanIn(), bias), 1)
	if err != nil {
		t.Fatal(err)
	}
	fc1, err := snn.NewDense("fc1", conv2.OutSize(), 65, fill(65, conv2.OutSize(), 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := snn.NewDense("fc2", 65, 10, fill(10, 65, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	layers := []*snn.Layer{conv1, conv2, fc1, fc2}
	for _, l := range layers {
		l.Leak = leak
		l.HardReset = hard
		l.Threshold = th
	}
	net, err := snn.NewNetwork("partial-groups", in, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Every layer of the fixtures runs its partial last group through the panel
// kernels; results, rasters and final potentials must match the step-major
// oracle at every block size, with and without leak, soft and hard reset,
// for a positive and a negative threshold.
func TestBlockedMatchesSteppedPartialGroups(t *testing.T) {
	for _, c := range [][2]int{{7, 15}, {15, 7}} {
		for _, leak := range []float64{0, 0.1} {
			for _, hard := range []bool{false, true} {
				for _, th := range []float64{1, -0.05} {
					net := partialGroupFixture(t, c[0], c[1], leak, hard, th)
					assertFixtureActive(t, net)
					for _, k := range blockSizes {
						assertBlockedMatchesStepped(t, net, 20, k)
					}
				}
			}
		}
	}
}

// activityRecorder counts each layer's spikes, the steps on which every
// neuron of the layer fired, and the spikes of the lanes in a partial last
// 8-lane group (channel c of C with c >= C - C mod 8; a dense layer is one
// location of C = rows).
type activityRecorder struct {
	net                     *snn.Network
	spikes, saturated, tail []int
}

func (r *activityRecorder) ObserveStep(_ int, _ *bitvec.Bits, layers []*bitvec.Bits) {
	if r.spikes == nil {
		r.spikes = make([]int, len(layers))
		r.saturated = make([]int, len(layers))
		r.tail = make([]int, len(layers))
	}
	for li, l := range layers {
		c := l.Count()
		r.spikes[li] += c
		if c == l.Len() {
			r.saturated[li]++
		}
		ch := r.net.Layers[li].Out.C
		for i := 0; i < l.Len(); i++ {
			if i%ch >= ch-ch%8 && l.Get(i) {
				r.tail[li]++
			}
		}
	}
}

// assertFixtureActive guards the fixture's meaning: each layer must spike,
// including in its partial last group, and never saturate, or the test
// would compare silent (or all-firing) lanes only.
func assertFixtureActive(t *testing.T, net *snn.Network) {
	t.Helper()
	in := make(tensor.Vec, net.Input.Size())
	for i := range in {
		in[i] = float64((i*13+5)%100) / 99
	}
	rec := activityRecorder{net: net}
	snn.NewState(net).RunBlockedK(in, snn.NewPoissonEncoder(0.8, 23), 20, 0, &rec)
	for li, l := range net.Layers {
		if rec.spikes[li] == 0 || rec.saturated[li] == 20 {
			t.Fatalf("%s: %d spikes, %d saturated steps in 20", l.Name, rec.spikes[li], rec.saturated[li])
		}
		if rec.tail[li] == 0 {
			t.Fatalf("%s: the partial last group never fires", l.Name)
		}
	}
}

// quadGroupFixture builds conv(3x3, c channels) -> dense c -> dense 10 on a
// 6x6x2 input without leak. The conv reads 6-bit kernel rows through the
// flat lists, so both it and the first dense layer run their channel or
// row groups through blockGroups: c = 32 is one quad, 40 a quad and a
// single group, 43 a quad and a partial single, 66 two quads and a
// partial single.
func quadGroupFixture(t *testing.T, c int, hard bool, th float64) *snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(131 + c)))
	fill := func(rows, cols int, bias float64) *tensor.Mat {
		w := tensor.NewMat(rows, cols)
		for i := range w.Data {
			w.Data[i] = (rng.NormFloat64() + bias) * 2 / math.Sqrt(float64(cols))
		}
		return w
	}
	bias := math.Copysign(0.3, th) // see partialGroupFixture
	in := tensor.Shape3{H: 6, W: 6, C: 2}
	g := tensor.ConvGeom{In: in, K: 3, Stride: 1, Pad: 1, OutC: c}
	conv, err := snn.NewConv("conv", g, fill(c, g.FanIn(), bias), 1)
	if err != nil {
		t.Fatal(err)
	}
	fc1, err := snn.NewDense("fc1", conv.OutSize(), c, fill(c, conv.OutSize(), 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := snn.NewDense("fc2", c, 10, fill(10, c, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	layers := []*snn.Layer{conv, fc1, fc2}
	for _, l := range layers {
		l.HardReset = hard
		l.Threshold = th
	}
	net, err := snn.NewNetwork("quad-groups", in, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// The quad kernel's layers — quads, single groups and partial tails of a
// dense layer and a narrow conv — match the step-major CSR oracle at every
// block size, for both reset modes and a positive and a negative
// threshold. Every 8-lane group of the conv and of fc1 must fire at least
// once, so a group reading another group's panel shows.
func TestBlockedMatchesSteppedQuadGroups(t *testing.T) {
	for _, c := range []int{32, 40, 43, 66} {
		for _, hard := range []bool{false, true} {
			for _, th := range []float64{1, -0.05} {
				net := quadGroupFixture(t, c, hard, th)
				assertGroupsActive(t, net, 2)
				for _, k := range blockSizes {
					assertBlockedMatchesStepped(t, net, 20, k)
				}
			}
		}
	}
}

// groupRecorder counts, per layer and 8-lane channel group, the spikes of
// that group over all locations, and the steps on which a layer saturated.
type groupRecorder struct {
	net       *snn.Network
	spikes    [][]int
	saturated []int
}

func (r *groupRecorder) ObserveStep(_ int, _ *bitvec.Bits, layers []*bitvec.Bits) {
	if r.spikes == nil {
		r.spikes = make([][]int, len(layers))
		r.saturated = make([]int, len(layers))
		for li, l := range r.net.Layers {
			r.spikes[li] = make([]int, (l.Out.C+7)/8)
		}
	}
	for li, l := range layers {
		if l.Count() == l.Len() {
			r.saturated[li]++
		}
		ch := r.net.Layers[li].Out.C
		l.ForEachSet(func(i int) { r.spikes[li][i%ch/8]++ })
	}
}

// assertGroupsActive requires every 8-lane group of the first layers
// layers to fire in a 20-step run, and no layer to fire on every neuron at
// every step, so the oracle comparison covers every group of every quad.
func assertGroupsActive(t *testing.T, net *snn.Network, layers int) {
	t.Helper()
	in := make(tensor.Vec, net.Input.Size())
	for i := range in {
		in[i] = float64((i*13+5)%100) / 99
	}
	rec := groupRecorder{net: net}
	snn.NewState(net).RunBlockedK(in, snn.NewPoissonEncoder(0.8, 23), 20, 0, &rec)
	for li, l := range net.Layers {
		if rec.saturated[li] == 20 {
			t.Fatalf("%s: saturated on every step", l.Name)
		}
		for g, n := range rec.spikes[li] {
			if li < layers && n == 0 {
				t.Fatalf("%s: group %d never fires", l.Name, g)
			}
		}
	}
}
