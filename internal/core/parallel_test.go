package core

import (
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

func batchInputs(net *snn.Network, n int, seed int64) []tensor.Vec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tensor.Vec, n)
	for i := range out {
		out[i] = tensor.NewVec(net.Input.Size())
		for j := range out[i] {
			out[i][j] = rng.Float64()
		}
	}
	return out
}

// Parallel batches must be deterministic and equal to a single-worker run.
func TestClassifyBatchParallelDeterministic(t *testing.T) {
	net := smallMLP(t, 41)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 20
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(net, 6, 42)
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 100+int64(i)) }

	serial, serialSRep, err := chip.ClassifyBatch(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, parSRep, err := chip.ClassifyBatch(inputs, factory, sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Energy != par.Energy || serial.Latency != par.Latency {
		t.Fatalf("parallel diverged: %v/%v vs %v/%v", serial.Energy, serial.Latency, par.Energy, par.Latency)
	}
	serialRep := serialSRep.Detail.(Report)
	parRep := parSRep.Detail.(Report)
	if serialRep.Counts != parRep.Counts {
		t.Fatalf("counters diverged: %+v vs %+v", serialRep.Counts, parRep.Counts)
	}
	if serialRep.BusCycles != parRep.BusCycles {
		t.Fatal("bus cycles diverged")
	}
	for i := range serialRep.LayerCycles {
		if serialRep.LayerCycles[i] != parRep.LayerCycles[i] {
			t.Fatal("layer cycles diverged")
		}
	}
}

func TestClassifyBatchParallelValidation(t *testing.T) {
	net := smallMLP(t, 43)
	m := mapped(t, net, 16)
	chip, err := New(net, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chip.ClassifyBatch(nil, func(int) snn.Encoder { return nil }, sim.Options{Workers: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Pipelined throughput: the initiation interval is bounded by the slowest
// stage and never exceeds the sequential per-step latency.
func TestPipelineInterval(t *testing.T) {
	net := smallMLP(t, 44)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 20
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	intensity := batchInputs(net, 1, 45)[0]
	res, rep := chip.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.8, 46))
	if len(rep.LayerCycles) != len(net.Layers) {
		t.Fatalf("LayerCycles %d", len(rep.LayerCycles))
	}
	sum := 0
	for _, c := range rep.LayerCycles {
		sum += c
	}
	if sum != rep.Counts.Cycles {
		t.Fatalf("layer cycles %d don't sum to total %d", sum, rep.Counts.Cycles)
	}
	ii := rep.PipelineInterval(opt.Steps)
	seqPerStep := (rep.Counts.Cycles + opt.Steps - 1) / opt.Steps
	if ii <= 0 || ii > seqPerStep {
		t.Fatalf("interval %d outside (0, %d]", ii, seqPerStep)
	}
	// Pipelined throughput must beat (or match) the sequential rate.
	seq := res.Throughput()
	pipe := rep.PipelinedThroughput(opt.Steps, opt.Params.NCCycle())
	if pipe < seq {
		t.Fatalf("pipelined throughput %v below sequential %v", pipe, seq)
	}
	// Degenerate inputs.
	if rep.PipelineInterval(0) != 0 || rep.PipelinedThroughput(0, 5e-9) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

// Early exit must stop at the first output spike, costing a fraction of the
// full run's energy and latency, and must agree with TTFS decoding of the
// full functional run.
func TestClassifyEarlyExit(t *testing.T) {
	net := smallMLP(t, 81)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 40
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	intensity := batchInputs(net, 1, 82)[0]
	fullRes, _ := chip.Classify(intensity, snn.NewPoissonEncoder(0.9, 83))
	eeRess, eeReps, err := chip.ClassifyEach([]tensor.Vec{intensity},
		func(int) snn.Encoder { return snn.NewPoissonEncoder(0.9, 83) },
		sim.Options{Workers: 1, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	eeRes, eeRep := eeRess[0], eeReps[0]
	steps := eeRep.Steps
	if steps <= 0 || steps > opt.Steps {
		t.Fatalf("steps %d", steps)
	}
	if steps < opt.Steps {
		if eeRes.Energy >= fullRes.Energy || eeRes.Latency >= fullRes.Latency {
			t.Fatalf("early exit saved nothing: %v/%v vs %v/%v",
				eeRes.Energy, eeRes.Latency, fullRes.Energy, fullRes.Latency)
		}
	}
	// Agreement with the functional model's TTFS decode at the exit step.
	st := snn.NewState(net)
	ref := st.RunBlockedK(intensity, snn.NewPoissonEncoder(0.9, 83), steps, 0, nil)
	if eeRep.Predicted != ref.TTFSPrediction() {
		t.Fatalf("early-exit predicted %d, functional TTFS %d", eeRep.Predicted, ref.TTFSPrediction())
	}

	// Silent input: runs the full budget, predicts -1.
	silent := tensor.NewVec(net.Input.Size())
	_, reps2, err := chip.ClassifyEach([]tensor.Vec{silent},
		func(int) snn.Encoder { return snn.NewPoissonEncoder(0.9, 84) },
		sim.Options{Workers: 1, EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	if reps2[0].Steps != opt.Steps || reps2[0].Predicted != -1 {
		t.Fatalf("silent early exit: steps %d predicted %d", reps2[0].Steps, reps2[0].Predicted)
	}
}

// ClassifyEach is the per-image primitive: its results must be bit-identical
// for any worker count, its per-image predictions must match the serial
// single-image reference, and its reduction must equal the batch aggregate.
func TestClassifyEachMatchesSerialReference(t *testing.T) {
	net := smallMLP(t, 51)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 20
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(net, 6, 52)
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 300+int64(i)) }

	one, oneReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, manyReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !reflect.DeepEqual(one[i], many[i]) {
			t.Fatalf("image %d result diverged across worker counts: %+v vs %+v", i, one[i], many[i])
		}
		oneDet := oneReps[i].Detail.(Report)
		manyDet := manyReps[i].Detail.(Report)
		if oneReps[i].Predicted != manyReps[i].Predicted || oneDet.Counts != manyDet.Counts {
			t.Fatalf("image %d report diverged across worker counts", i)
		}
		// Serial single-image reference, bit for bit.
		refRes, refRep := chip.Classify(inputs[i], factory(i))
		if !reflect.DeepEqual(one[i], refRes) || oneReps[i].Predicted != refRep.Predicted {
			t.Fatalf("image %d diverged from Classify: %+v vs %+v", i, one[i], refRes)
		}
	}
	if _, _, err := chip.ClassifyEach(nil, factory, sim.Options{Workers: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Any worker count must return the same aggregated shape: averaged
// energy/latency, summed counters, populated per-layer cycles and breakdown,
// and Predicted == -1 on the aggregate.
func TestClassifyBatchAggregateShapeUnified(t *testing.T) {
	net := smallMLP(t, 53)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 16
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(net, 4, 54)
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 400+int64(i)) }
	_, sRep, err := chip.ClassifyBatch(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, pRep, err := chip.ClassifyBatch(inputs, factory, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, srep := range []sim.Report{sRep, pRep} {
		rep := srep.Detail.(Report)
		if srep.Predicted != -1 || rep.Predicted != -1 {
			t.Fatalf("aggregate Predicted = %d/%d, want -1", srep.Predicted, rep.Predicted)
		}
		if len(rep.LayerCycles) != len(net.Layers) {
			t.Fatalf("aggregate LayerCycles %d, want %d", len(rep.LayerCycles), len(net.Layers))
		}
		sum := 0
		for _, c := range rep.LayerCycles {
			sum += c
		}
		if sum != rep.Counts.Cycles {
			t.Fatalf("aggregate layer cycles %d don't sum to %d", sum, rep.Counts.Cycles)
		}
		if rep.Breakdown.Total() != rep.Counts.Cycles {
			t.Fatalf("aggregate breakdown %d != cycles %d", rep.Breakdown.Total(), rep.Counts.Cycles)
		}
	}
}
