package shard

import (
	"reflect"
	"strings"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

const testSteps = 16

func chipFor(t testing.TB, b bench.Benchmark) *core.Chip {
	t.Helper()
	net, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(net, mapping.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Steps = testSteps
	chip, err := core.New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func benchInputs(t testing.TB, b bench.Benchmark, net *snn.Network, n int) []tensor.Vec {
	t.Helper()
	set := dataset.Generate(b.Dataset, n, 101)
	out := make([]tensor.Vec, len(set.Samples))
	for i, s := range set.Samples {
		in, err := bench.PrepareInput(s.Input, set.Shape, net.Input)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bench.NormalizeIntensity(in)
	}
	return out
}

func factoryFor(seed int64) sim.EncoderFactory {
	base := snn.NewPoissonEncoder(0.8, seed)
	return func(i int) snn.Encoder { return base.ForkSeed(i) }
}

// The sharded pipeline's defining contract: for every Fig 10 benchmark and
// every shard count, predictions, chip event counters, and the summed
// chip energy are bit-identical to the single-chip simulation. Run with
// -race: images fan out across workers that share the chip's session pool.
func TestShardedMatchesSingleChip(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 3)

			refRess, refReps, err := chip.ClassifyEach(inputs, factoryFor(7), sim.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}

			for _, n := range []int{1, 2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				ress, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					ref := refReps[i].Detail.(core.Report)
					got := reps[i].Detail.(Report)
					if reps[i].Predicted != refReps[i].Predicted {
						t.Fatalf("x%d image %d: predicted %d, single-chip %d",
							n, i, reps[i].Predicted, refReps[i].Predicted)
					}
					if got.Chip.Counts != ref.Counts {
						t.Fatalf("x%d image %d: counters diverged\nsharded: %+v\nsingle:  %+v",
							n, i, got.Chip.Counts, ref.Counts)
					}
					if got.Chip.Energy != ref.Energy {
						t.Fatalf("x%d image %d: chip energy diverged\nsharded: %+v\nsingle:  %+v",
							n, i, got.Chip.Energy, ref.Energy)
					}
					if got.Chip.Energy.Total() != refRess[i].Energy {
						t.Fatalf("x%d image %d: summed energy %v != single-chip %v",
							n, i, got.Chip.Energy.Total(), refRess[i].Energy)
					}
					// The sharded total adds the inter-chip link on top of the
					// chip energy; a single shard has no link at all.
					wantLink := got.Link.EnergyJ
					if n == 1 && (wantLink != 0 || got.Link.Cycles != 0) {
						t.Fatalf("x1 link traffic: %+v", got.Link)
					}
					if ress[i].Energy != got.Chip.Energy.Total()+wantLink {
						t.Fatalf("x%d image %d: result energy %v != chip %v + link %v",
							n, i, ress[i].Energy, got.Chip.Energy.Total(), wantLink)
					}
				}
			}
		})
	}
}

// The sequential Classify and the fanned-out ClassifyEach must agree
// exactly, and ClassifyEach must return results in input order.
func TestPipelineMatchesSequential(t *testing.T) {
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 4)
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ress, reps, err := multi.ClassifyEach(inputs, factoryFor(9), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		seqRes, seqSRep := multi.Classify(inputs[i], factoryFor(9)(i))
		if !reflect.DeepEqual(ress[i], seqRes) {
			t.Fatalf("image %d: pipeline %+v, sequential %+v", i, ress[i], seqRes)
		}
		seqRep := seqSRep.Detail.(Report)
		rep := reps[i].Detail.(Report)
		if rep.Chip.Counts != seqRep.Chip.Counts || rep.Link != seqRep.Link {
			t.Fatalf("image %d: pipeline report diverged from sequential", i)
		}
	}
}

// TestClassifyEachWorkerEquivalence: ClassifyEach fans images out over
// sim.Options.Workers, and every worker count must reproduce the images run
// one at a time — the full per-image perf.Result and shard Report (Chip,
// Hops, Link, Interval, prediction), with and without the event engine. The
// Chip must also match the single-chip reference.
// Run with -race: workers share the chip and its session pool.
func TestClassifyEachWorkerEquivalence(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 4)
			enc := factoryFor(13)
			for _, evt := range []bool{false, true} {
				_, refReps, err := chip.ClassifyEach(inputs, enc, sim.Options{Workers: 1, EventEngine: evt})
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{2, 4} {
					multi, err := New(chip, Config{Shards: n})
					if err != nil {
						t.Fatal(err)
					}
					// Sequential reference: one image per call. Classify takes
					// no options, so the event-engine reference is a
					// single-image ClassifyEach on one worker.
					seqRess := make([]perf.Result, len(inputs))
					seqReps := make([]sim.Report, len(inputs))
					for i := range inputs {
						if !evt {
							seqRess[i], seqReps[i] = multi.Classify(inputs[i], enc(i))
							continue
						}
						i := i
						r, p, err := multi.ClassifyEach(inputs[i:i+1], func(int) snn.Encoder { return enc(i) },
							sim.Options{Workers: 1, EventEngine: true})
						if err != nil {
							t.Fatal(err)
						}
						seqRess[i], seqReps[i] = r[0], p[0]
					}
					for _, w := range []int{1, 2, 4} {
						ress, reps, err := multi.ClassifyEach(inputs, enc, sim.Options{Workers: w, EventEngine: evt})
						if err != nil {
							t.Fatal(err)
						}
						for i := range inputs {
							if !reflect.DeepEqual(ress[i], seqRess[i]) {
								t.Fatalf("x%d workers %d event %v image %d: result %+v, sequential %+v",
									n, w, evt, i, ress[i], seqRess[i])
							}
							if !reflect.DeepEqual(reps[i], seqReps[i]) {
								t.Fatalf("x%d workers %d event %v image %d: report diverged from sequential\ngot:  %+v\nwant: %+v",
									n, w, evt, i, reps[i], seqReps[i])
							}
							got := singleChipView(reps[i].Detail.(Report).Chip, evt)
							want := singleChipView(refReps[i].Detail.(core.Report), evt)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("x%d workers %d event %v image %d: chip report diverged from single chip\nsharded: %+v\nsingle:  %+v",
									n, w, evt, i, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// singleChipView strips what a shard report's Chip does not share with a
// single-chip report of the same image: under the event engine Cycles,
// Latency and BusWait come from the global pipeline, whose hops one chip
// does not have.
func singleChipView(r core.Report, evt bool) core.Report {
	if evt {
		r.Counts.Cycles, r.Latency, r.BusWait = 0, 0, 0
	}
	return r
}

// The interval (modeled initiation interval) must make a multi-shard
// pipeline at least as fast as the single-chip latency on a conv benchmark:
// images/sec is bounded by the slowest stage, not the whole network.
func TestPipelineIntervalBeatsSingleChip(t *testing.T) {
	b, err := bench.ByName("mnist-cnn")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 1)
	one, err := New(chip, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := New(chip, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, rep1 := one.Classify(inputs[0], factoryFor(11)(0))
	_, rep4 := four.Classify(inputs[0], factoryFor(11)(0))
	i1 := rep1.Detail.(Report).ImagesPerSec()
	i4 := rep4.Detail.(Report).ImagesPerSec()
	if i1 <= 0 || i4 <= 0 {
		t.Fatalf("throughputs %v, %v", i1, i4)
	}
	if i4 <= i1 {
		t.Fatalf("4-shard pipeline %v images/sec not above single chip %v", i4, i1)
	}
}

func TestPartitionerShapes(t *testing.T) {
	b, err := bench.ByName("cifar-cnn")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	L := len(chip.Net.Layers)

	// Shard counts above the layer count clamp; ranges tile [0, L).
	multi, err := New(chip, Config{Shards: L + 3})
	if err != nil {
		t.Fatal(err)
	}
	ranges := multi.Ranges()
	if len(ranges) != L {
		t.Fatalf("%d ranges for %d layers", len(ranges), L)
	}
	lo := 0
	for _, r := range ranges {
		if r.Lo != lo || r.Hi <= r.Lo {
			t.Fatalf("ranges don't tile: %+v", ranges)
		}
		lo = r.Hi
	}
	if lo != L {
		t.Fatalf("ranges end at %d, want %d", lo, L)
	}
	if !strings.HasSuffix(multi.Name(), "-x"+itoa(L)) {
		t.Fatalf("name %q", multi.Name())
	}

	// Every shard count partitions at the shared minimax DP's cuts of the
	// layers' mPE spans.
	spans := make([]int, L)
	for li := range spans {
		lm := &chip.Map.Layers[li]
		spans[li] = lm.MPELast - lm.MPEFirst + 1
	}
	for n := 1; n <= L; n++ {
		m, err := New(chip, Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		var cuts []int
		for _, r := range m.Ranges()[1:] {
			cuts = append(cuts, r.Lo)
		}
		if want := cost.MinimaxCuts(spans, n); !reflect.DeepEqual(cuts, want) {
			t.Fatalf("%d shards cut at %v, minimax DP gives %v", n, cuts, want)
		}
	}

	// A capacity too small for the widest layer must be rejected.
	if _, err := New(chip, Config{Shards: 2, MaxMPEsPerChip: 1}); err == nil {
		t.Fatal("impossible capacity accepted")
	}

	// Invalid shard counts.
	if _, err := New(chip, Config{Shards: 0}); err == nil {
		t.Fatal("0 shards accepted")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// EarlyExit has no meaning on a pipeline (the decision is made on the last
// chip only after boundary spikes have crossed every link); it must be
// rejected, as must tracing.
func TestPipelineRejectsUnsupportedOptions(t *testing.T) {
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 1)
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := multi.ClassifyEach(inputs, factoryFor(3), sim.Options{EarlyExit: true}); err == nil {
		t.Fatal("early exit accepted")
	}
	if _, _, err := multi.ClassifyEach(nil, factoryFor(3), sim.Options{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, _, err := multi.ClassifyEach(inputs, nil, sim.Options{}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// ClassifyBatch aggregates like the single-chip batch path: averaged
// energy/latency, summed counters, Predicted == -1.
func TestClassifyBatchAggregate(t *testing.T) {
	b, err := bench.ByName("svhn-mlp")
	if err != nil {
		t.Fatal(err)
	}
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 3)
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, srep, err := multi.ClassifyBatch(inputs, factoryFor(5), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srep.Predicted != -1 {
		t.Fatalf("aggregate Predicted %d", srep.Predicted)
	}
	rep := srep.Detail.(Report)
	if res.Energy <= 0 || res.Latency <= 0 || rep.Chip.Energy.Total() <= 0 {
		t.Fatalf("aggregate %+v", res)
	}
	ress, reps, err := multi.ClassifyEach(inputs, factoryFor(5), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantEnergy float64
	for _, r := range ress {
		wantEnergy += r.Energy
	}
	wantEnergy /= float64(len(ress))
	if res.Energy != wantEnergy {
		t.Fatalf("aggregate energy %v, want mean %v", res.Energy, wantEnergy)
	}
	var wantCounts core.Counters
	for _, r := range reps {
		wantCounts = addCounters(wantCounts, r.Detail.(Report).Chip.Counts)
	}
	if rep.Chip.Counts != wantCounts {
		t.Fatalf("aggregate counters %+v, want %+v", rep.Chip.Counts, wantCounts)
	}
}

func addCounters(a, b core.Counters) core.Counters {
	a.Cycles += b.Cycles
	a.BusWords += b.BusWords
	a.BusWordsSuppressed += b.BusWordsSuppressed
	a.PacketsDelivered += b.PacketsDelivered
	a.PacketsSuppressed += b.PacketsSuppressed
	a.MCAActivations += b.MCAActivations
	a.RowsDriven += b.RowsDriven
	a.Integrations += b.Integrations
	a.Spikes += b.Spikes
	a.ExtTransfers += b.ExtTransfers
	return a
}
