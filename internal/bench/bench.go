// Package bench defines the six SNN benchmarks of the paper's Fig 10: one
// MLP and one CNN for each recognition application (digit recognition /
// MNIST, house-number recognition / SVHN, object classification /
// CIFAR-10).
//
// The paper publishes only the totals (layers / neurons / synapses). The
// layer shapes below were found by numerical search to match the published
// totals to within 0.02% under the counting convention used throughout this
// repository: neurons exclude the input layer; synapses count every
// (output, input-tap) connection, conv padding taps included. Package tests
// assert the match against the published numbers.
//
// Networks are materialized with synthetic weights whose sign mix and
// layer thresholds are balanced so spike rates stay in a realistic range —
// the architecture experiments (Figs 11-13) depend only on topology and
// spike statistics, not task accuracy. Accuracy experiments (Fig 14a) use
// separately trained networks (internal/ann + internal/snn).
package bench

import (
	"fmt"
	"math/rand"

	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Benchmark is one Fig 10 row.
type Benchmark struct {
	// Name is the short identifier, e.g. "mnist-mlp".
	Name string
	// App is the application label of Fig 10.
	App string
	// Dataset selects the synthetic input family.
	Dataset dataset.Kind
	// Connectivity is "MLP" or "CNN".
	Connectivity string
	// Published Fig 10 totals.
	PubLayers, PubNeurons, PubSynapses int
	// HiddenRate is the target spike rate of hidden layers used for
	// threshold balancing (CNNs run hotter: their windows see foreground,
	// §5.3).
	HiddenRate float64

	build func(seed int64) (*snn.Network, error)
}

// Build materializes the network with deterministic synthetic weights.
func (b Benchmark) Build(seed int64) (*snn.Network, error) { return b.build(seed) }

// All returns the six benchmarks in Fig 10's order.
func All() []Benchmark {
	return []Benchmark{
		svhnMLP(), svhnCNN(),
		mnistMLP(), mnistCNN(),
		cifarMLP(), cifarCNN(),
	}
}

// MLPs returns the three MLP benchmarks (Fig 11 b/d panels order: MNIST,
// SVHN, CIFAR-10).
func MLPs() []Benchmark { return []Benchmark{mnistMLP(), svhnMLP(), cifarMLP()} }

// CNNs returns the three CNN benchmarks (Fig 11 a/c panels order).
func CNNs() []Benchmark { return []Benchmark{mnistCNN(), svhnCNN(), cifarCNN()} }

// ByName finds a benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

func mnistMLP() Benchmark {
	return Benchmark{
		Name: "mnist-mlp", App: "Digit Recognition", Dataset: dataset.Digits,
		Connectivity: "MLP", PubLayers: 4, PubNeurons: 2378, PubSynapses: 1902400,
		HiddenRate: 0.08,
		build: func(seed int64) (*snn.Network, error) {
			return buildMLP("mnist-mlp", 784, []int{634, 1134, 600}, 0.08, inputRateOf(dataset.Digits), seed)
		},
	}
}

func svhnMLP() Benchmark {
	return Benchmark{
		Name: "svhn-mlp", App: "House Number Recognition", Dataset: dataset.StreetDigits,
		Connectivity: "MLP", PubLayers: 4, PubNeurons: 2778, PubSynapses: 2778000,
		HiddenRate: 0.08,
		build: func(seed int64) (*snn.Network, error) {
			return buildMLP("svhn-mlp", 1024, []int{850, 1264, 654}, 0.08, inputRateOf(dataset.StreetDigits), seed)
		},
	}
}

func cifarMLP() Benchmark {
	return Benchmark{
		Name: "cifar-mlp", App: "Object Classification", Dataset: dataset.Objects,
		Connectivity: "MLP", PubLayers: 5, PubNeurons: 3778, PubSynapses: 3778000,
		HiddenRate: 0.08,
		build: func(seed int64) (*snn.Network, error) {
			return buildMLP("cifar-mlp", 1024, []int{232, 1832, 1664, 40}, 0.08, inputRateOf(dataset.Objects), seed)
		},
	}
}

func mnistCNN() Benchmark {
	return Benchmark{
		Name: "mnist-cnn", App: "Digit Recognition", Dataset: dataset.Digits,
		Connectivity: "CNN", PubLayers: 6, PubNeurons: 66778, PubSynapses: 1484288,
		HiddenRate: 0.15,
		build: func(seed int64) (*snn.Network, error) {
			return buildCNN("mnist-cnn", tensor.Shape3{H: 28, W: 28, C: 1}, 3, 66, 8, 86, 0.15, inputRateOf(dataset.Digits), seed)
		},
	}
}

func svhnCNN() Benchmark {
	return Benchmark{
		Name: "svhn-cnn", App: "House Number Recognition", Dataset: dataset.StreetDigits,
		Connectivity: "CNN", PubLayers: 6, PubNeurons: 124570, PubSynapses: 2941952,
		HiddenRate: 0.15,
		build: func(seed int64) (*snn.Network, error) {
			return buildCNN("svhn-cnn", tensor.Shape3{H: 32, W: 32, C: 1}, 3, 95, 8, 414, 0.15, inputRateOf(dataset.StreetDigits), seed)
		},
	}
}

func cifarCNN() Benchmark {
	return Benchmark{
		Name: "cifar-cnn", App: "Object Classification", Dataset: dataset.Objects,
		Connectivity: "CNN", PubLayers: 6, PubNeurons: 231066, PubSynapses: 5524480,
		HiddenRate: 0.15,
		build: func(seed int64) (*snn.Network, error) {
			return buildCNN("cifar-cnn", tensor.Shape3{H: 32, W: 32, C: 1}, 3, 178, 8, 796, 0.15, inputRateOf(dataset.Objects), seed)
		},
	}
}

// EncoderPeak is the Poisson encoder peak probability assumed when
// estimating input spike rates for threshold balancing.
const EncoderPeak = 0.8

// TargetMeanIntensity is the per-image mean intensity the encoder gain is
// normalized to. Rate encoders in SNN pipelines are gain-calibrated per
// dataset so total input spike counts are comparable; normalization scales
// intensities (zeros stay zero, so the zero-run structure that drives the
// event-driven savings of Fig 13 is preserved).
const TargetMeanIntensity = 0.15

// inputRateOf is the balanced input spike rate every benchmark is
// calibrated against: the normalized mean intensity times the encoder peak.
func inputRateOf(dataset.Kind) float64 { return TargetMeanIntensity * EncoderPeak }

// NormalizeIntensity rescales an image so its mean intensity is
// TargetMeanIntensity, clipping at 1. All-black images are returned as-is.
func NormalizeIntensity(img tensor.Vec) tensor.Vec {
	var sum float64
	for _, v := range img {
		sum += v
	}
	mean := sum / float64(len(img))
	if mean <= 0 {
		return img
	}
	scale := TargetMeanIntensity / mean
	out := tensor.NewVec(len(img))
	for i, v := range img {
		x := v * scale
		if x > 1 {
			x = 1
		}
		out[i] = x
	}
	return out
}

// fillWeights draws synaptic weights with a positive-skewed sign mix (70%
// excitatory) and returns their mean — the basis of threshold balancing.
func fillWeights(w *tensor.Mat, rng *rand.Rand) float64 {
	var sum float64
	for i := range w.Data {
		var v float64
		if rng.Float64() < 0.7 {
			v = rng.Float64() * 0.1
		} else {
			v = -rng.Float64() * 0.05
		}
		w.Data[i] = v
		sum += v
	}
	return sum / float64(len(w.Data))
}

// analyticThreshold seeds the calibration: with reset-by-subtraction,
// rate_out ≈ fanIn * rate_in * E[w] / threshold.
func analyticThreshold(fanIn int, rateIn, meanW, rateOut float64) float64 {
	th := float64(fanIn) * rateIn * meanW / rateOut
	if th < 1e-3 {
		th = 1e-3
	}
	return th
}

// builder calibrates thresholds layer by layer: it carries a short spike
// train at the current network frontier and rescales each new layer's
// threshold until its measured output rate hits the target. The analytic
// seed alone drifts through depth (inhibitory weights make rates decay),
// so two multiplicative corrections are applied.
type builder struct {
	rng    *rand.Rand
	train  []*bitvec.Bits
	layers []*snn.Layer
}

const calibSteps = 24

func newBuilder(inputSize int, inputRate float64, rng *rand.Rand) *builder {
	b := &builder{rng: rng}
	for t := 0; t < calibSteps; t++ {
		bits := bitvec.New(inputSize)
		for i := 0; i < inputSize; i++ {
			if rng.Float64() < inputRate {
				bits.Set(i)
			}
		}
		b.train = append(b.train, bits)
	}
	return b
}

// measureRate runs the single-layer calibration network on st over the
// frontier train with the given threshold and returns the mean output spike
// rate.
func (b *builder) measureRate(st *snn.State, th float64) float64 {
	l := st.Net.Layers[0]
	old := l.Threshold
	l.Threshold = th
	defer func() { l.Threshold = old }()
	run := st.RunBlockedK(nil, &snn.ReplayEncoder{Raster: b.train}, len(b.train), 0, nil)
	spikes := 0
	for _, n := range run.OutCounts {
		spikes += n
	}
	return float64(spikes) / float64(l.OutSize()*len(b.train))
}

// add calibrates the layer's threshold toward targetRate (skipped for pool
// layers, whose 0.499 threshold is rate-preserving by construction), then
// advances the frontier train through it.
func (b *builder) add(l *snn.Layer, targetRate float64) error {
	net, err := snn.NewNetwork("calib", l.In, l)
	if err != nil {
		return err
	}
	st := snn.NewState(net)
	if l.Kind != snn.PoolLayer && targetRate > 0 {
		th := l.Threshold
		for iter := 0; iter < 2; iter++ {
			r := b.measureRate(st, th)
			if r <= 0 {
				th /= 4 // too cold to measure; thaw aggressively
				continue
			}
			th *= r / targetRate
			if th < 1e-3 {
				th = 1e-3
			}
		}
		l.Threshold = th
	}
	// Advance the frontier.
	next := make([]*bitvec.Bits, len(b.train))
	for t := range next {
		next[t] = bitvec.New(l.OutSize())
	}
	st.RunBlockedK(nil, &snn.ReplayEncoder{Raster: b.train}, len(b.train), 0, &snn.CaptureObserver{Out: next})
	b.train = next
	b.layers = append(b.layers, l)
	return nil
}

func buildMLP(name string, input int, hidden []int, rate, inputRate float64, seed int64) (*snn.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(input, inputRate, rng)
	sizes := append(append([]int{input}, hidden...), 10)
	rateIn := inputRate
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		w := tensor.NewMat(out, in)
		meanW := fillWeights(w, rng)
		l, err := snn.NewDense(fmt.Sprintf("%s/fc%d", name, i), in, out, w,
			analyticThreshold(in, rateIn, meanW, rate))
		if err != nil {
			return nil, err
		}
		if err := b.add(l, rate); err != nil {
			return nil, err
		}
		rateIn = rate
	}
	return snn.NewNetwork(name, tensor.Shape3{H: 1, W: 1, C: input}, b.layers...)
}

// buildCNN constructs the 6-layer family: conv kxk (same padding) x c1 ->
// pool2 -> conv 3x3 (same padding) x c2 -> pool2 -> fc f -> fc 10.
func buildCNN(name string, in tensor.Shape3, k, c1, c2, f int, rate, inputRate float64, seed int64) (*snn.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(in.Size(), inputRate, rng)

	g1 := tensor.ConvGeom{In: in, K: k, Stride: 1, Pad: k / 2, OutC: c1}
	w1 := tensor.NewMat(c1, g1.FanIn())
	m1 := fillWeights(w1, rng)
	conv1, err := snn.NewConv(name+"/conv1", g1, w1, analyticThreshold(g1.FanIn(), inputRate, m1, rate))
	if err != nil {
		return nil, err
	}
	if err := b.add(conv1, rate); err != nil {
		return nil, err
	}

	pool1, err := snn.NewPool(name+"/pool1", conv1.Out, 2, 0.499)
	if err != nil {
		return nil, err
	}
	if err := b.add(pool1, 0); err != nil {
		return nil, err
	}

	g2 := tensor.ConvGeom{In: pool1.Out, K: 3, Stride: 1, Pad: 1, OutC: c2}
	w2 := tensor.NewMat(c2, g2.FanIn())
	m2 := fillWeights(w2, rng)
	conv2, err := snn.NewConv(name+"/conv2", g2, w2, analyticThreshold(g2.FanIn(), rate, m2, rate))
	if err != nil {
		return nil, err
	}
	if err := b.add(conv2, rate); err != nil {
		return nil, err
	}

	pool2, err := snn.NewPool(name+"/pool2", conv2.Out, 2, 0.499)
	if err != nil {
		return nil, err
	}
	if err := b.add(pool2, 0); err != nil {
		return nil, err
	}

	fcIn := pool2.OutSize()
	wf := tensor.NewMat(f, fcIn)
	mf := fillWeights(wf, rng)
	fc1, err := snn.NewDense(name+"/fc1", fcIn, f, wf, analyticThreshold(fcIn, rate, mf, rate))
	if err != nil {
		return nil, err
	}
	fc1.In = pool2.Out
	if err := b.add(fc1, rate); err != nil {
		return nil, err
	}

	wo := tensor.NewMat(10, f)
	mo := fillWeights(wo, rng)
	fc2, err := snn.NewDense(name+"/fc2", f, 10, wo, analyticThreshold(f, rate, mo, rate))
	if err != nil {
		return nil, err
	}
	if err := b.add(fc2, rate); err != nil {
		return nil, err
	}
	return snn.NewNetwork(name, in, b.layers...)
}

// PrepareInput adapts a dataset sample to the network's input shape: RGB
// images collapse to grayscale (channel mean) when the network expects one
// channel. It returns an error for any other mismatch.
func PrepareInput(img tensor.Vec, from tensor.Shape3, to tensor.Shape3) (tensor.Vec, error) {
	if from == to {
		return img, nil
	}
	if from.H == to.H && from.W == to.W && to.C == 1 && from.C > 1 {
		out := tensor.NewVec(to.Size())
		for y := 0; y < from.H; y++ {
			for x := 0; x < from.W; x++ {
				var sum float64
				for c := 0; c < from.C; c++ {
					sum += img[from.Index(y, x, c)]
				}
				out[to.Index(y, x, 0)] = sum / float64(from.C)
			}
		}
		return out, nil
	}
	// MLPs flatten: accept any same-size flat reshape.
	if from.Size() == to.Size() {
		return img, nil
	}
	// Grayscale collapse followed by flatten (e.g. 32x32x3 -> 1x1x1024).
	if to.Size() == from.H*from.W && from.C > 1 {
		out := tensor.NewVec(to.Size())
		for y := 0; y < from.H; y++ {
			for x := 0; x < from.W; x++ {
				var sum float64
				for c := 0; c < from.C; c++ {
					sum += img[from.Index(y, x, c)]
				}
				out[y*from.W+x] = sum / float64(from.C)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("bench: cannot adapt input %v to %v", from, to)
}
