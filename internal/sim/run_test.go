package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/dataset"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// oracleEarlyExit is the step-at-a-time time-to-first-spike loop the
// blocked early-exit runner replaced, kept as its reference: reset, then
// encode and Step one timestep at a time, feeding each step to obs, until
// an output neuron fires (or maxSteps elapse). It returns the steps executed
// and the TTFS prediction (-1 if no output neuron fired); ties at the exit
// step break toward the higher spike count, then the lower index.
func oracleEarlyExit(st *snn.State, intensity tensor.Vec, enc snn.Encoder, maxSteps int, obs snn.Observer) (steps, predicted int) {
	st.Reset()
	net := st.Net
	in := bitvec.New(net.Input.Size())
	counts := make([]int, net.OutSize())
	layers := make([]*bitvec.Bits, len(net.Layers))
	for t := 0; t < maxSteps; t++ {
		enc.Encode(intensity, in)
		out := st.Step(in)
		if obs != nil {
			for i := range layers {
				layers[i] = st.LayerSpikes(i)
			}
			obs.ObserveStep(t, st.InputSpikes(), layers)
		}
		fired := false
		out.ForEachSet(func(i int) {
			counts[i]++
			fired = true
		})
		if fired {
			best, bestN := -1, 0
			for i, n := range counts {
				if n > bestN {
					best, bestN = i, n
				}
			}
			return t + 1, best
		}
	}
	return maxSteps, -1
}

// runOne runs one input through Run as a group of one (no configured block)
// and returns the steps executed and the prediction.
func runOne(st *snn.State, input tensor.Vec, enc snn.Encoder, maxSteps int, opt Options, obs snn.Observer) (steps, predicted int) {
	var out [1]snn.RunResult
	Run([]snn.Member{{State: st, Input: input, Enc: enc, Obs: obs}}, maxSteps, 0, opt, out[:])
	return out[0].Steps, out[0].Prediction
}

// stepTrace records every observed step as (t, fingerprint of the input
// and every layer's spikes), so two runs can be compared step for step.
type stepTrace struct{ steps []string }

func fingerprint(input *bitvec.Bits, layers []*bitvec.Bits) string {
	h := fnv.New64a()
	for _, b := range append([]*bitvec.Bits{input}, layers...) {
		for _, w := range b.Words() {
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(w >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

func (s *stepTrace) ObserveStep(t int, input *bitvec.Bits, layers []*bitvec.Bits) {
	s.steps = append(s.steps, fmt.Sprintf("%d:%s", t, fingerprint(input, layers)))
}

// lastViews fingerprints the State's last-step views.
func lastViews(st *snn.State) string {
	layers := make([]*bitvec.Bits, len(st.Net.Layers))
	for i := range layers {
		layers[i] = st.LayerSpikes(i)
	}
	return fingerprint(st.InputSpikes(), layers)
}

// fig10Input draws one normalized dataset image for the benchmark.
func fig10Input(t testing.TB, b bench.Benchmark, net *snn.Network) tensor.Vec {
	t.Helper()
	set := dataset.Generate(b.Dataset, 1, 101)
	in, err := bench.PrepareInput(set.Samples[0].Input, set.Shape, net.Input)
	if err != nil {
		t.Fatal(err)
	}
	return bench.NormalizeIntensity(in)
}

// TestRunEarlyExitMatchesStepOracle pins sim.Run's blocked early exit to the
// step-at-a-time oracle on all six Fig 10 networks: steps executed,
// prediction, the observed (timestep, rasters) sequence and the last-step
// views must match at block sizes 1, 7 and the default, plus block sizes
// derived from the oracle's exit step so that the exit lands inside a block,
// on the last step of a block and on the first step of a block. The
// prediction must also equal the TTFS decode of a full run of that many
// steps, and a silent input must run the whole budget and predict -1.
func TestRunEarlyExitMatchesStepOracle(t *testing.T) {
	const maxSteps = 48
	for _, b := range bench.All() {
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		in := fig10Input(t, b, net)
		enc := func() snn.Encoder { return snn.NewPoissonEncoder(0.8, 8) }
		st := snn.NewState(net)
		var want stepTrace
		wantSteps, wantPred := oracleEarlyExit(st, in, enc(), maxSteps, &want)
		wantViews := lastViews(st)
		if wantPred < 0 || wantSteps < 3 {
			t.Fatalf("%s: oracle exit at %d (pred %d); the block cases need an exit after step 2", b.Name, wantSteps, wantPred)
		}
		full := snn.NewState(net).RunBlockedK(in, enc(), wantSteps, 0, nil)
		if ttfs := full.TTFSPrediction(); ttfs != wantPred {
			t.Fatalf("%s: oracle predicted %d, TTFS decode of a %d-step run %d", b.Name, wantPred, wantSteps, ttfs)
		}
		blocks := []int{1, 7, 0, wantSteps - 1, wantSteps, wantSteps + 1}
		for _, k := range blocks {
			var got stepTrace
			steps, pred := runOne(st, in, enc(), maxSteps, Options{EarlyExit: true, BlockSize: k}, &got)
			if steps != wantSteps || pred != wantPred {
				t.Errorf("%s K=%d: steps %d pred %d, oracle %d %d", b.Name, k, steps, pred, wantSteps, wantPred)
			}
			if !reflect.DeepEqual(got.steps, want.steps) {
				t.Errorf("%s K=%d: observed steps differ from the oracle", b.Name, k)
			}
			if v := lastViews(st); v != wantViews {
				t.Errorf("%s K=%d: last-step views %s, oracle %s", b.Name, k, v, wantViews)
			}
		}

		silent := make(tensor.Vec, len(in))
		var got, ref stepTrace
		steps, pred := runOne(st, silent, enc(), maxSteps, Options{EarlyExit: true}, &got)
		oSteps, oPred := oracleEarlyExit(snn.NewState(net), silent, enc(), maxSteps, &ref)
		if steps != maxSteps || pred != -1 || oSteps != maxSteps || oPred != -1 {
			t.Errorf("%s silent: steps %d pred %d (oracle %d %d), want %d -1", b.Name, steps, pred, oSteps, oPred, maxSteps)
		}
		if !reflect.DeepEqual(got.steps, ref.steps) {
			t.Errorf("%s silent: observed steps differ from the oracle", b.Name)
		}
	}
}

// BenchmarkEarlyExitBlock times one early-exit classification of mnist-mlp
// and mnist-cnn (48-step budget, the ablation's inputs and encoder rate) with
// the step-at-a-time oracle and with the blocked runner at several block
// sizes — the measurement behind earlyExitBlock. Image i gets fork i of one
// base encoder, made before the timer starts as an encoder factory would
// hand it over; the runner lends each fork its State's reused source, so a
// warm runner classification allocates nothing.
func BenchmarkEarlyExitBlock(b *testing.B) {
	const maxSteps = 48
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		net, err := bm.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		set := dataset.Generate(bm.Dataset, 8, 101)
		inputs := make([]tensor.Vec, len(set.Samples))
		for i, s := range set.Samples {
			in, err := bench.PrepareInput(s.Input, set.Shape, net.Input)
			if err != nil {
				b.Fatal(err)
			}
			inputs[i] = bench.NormalizeIntensity(in)
		}
		st := snn.NewState(net)
		base := snn.NewPoissonEncoder(0.8, 0)
		run := func(k int) func(i int, enc snn.Encoder) {
			return func(i int, enc snn.Encoder) {
				runOne(st, inputs[i%len(inputs)], enc, maxSteps, Options{EarlyExit: true, BlockSize: k}, nil)
			}
		}
		type benchCase struct {
			name string
			fn   func(i int, enc snn.Encoder)
		}
		cases := []benchCase{{"step-oracle", func(i int, enc snn.Encoder) {
			oracleEarlyExit(st, inputs[i%len(inputs)], enc, maxSteps, nil)
		}}}
		for _, k := range []int{1, 4, 8, 16, maxSteps} {
			cases = append(cases, benchCase{fmt.Sprintf("K=%d", k), run(k)})
		}
		for _, c := range cases {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				c.fn(0, base.ForkSeed(0)) // warm the State's block buffers, source and weight panels
				encs := make([]snn.Encoder, b.N)
				for i := range encs {
					encs[i] = base.ForkSeed(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.fn(i, encs[i])
				}
			})
		}
	}
}
