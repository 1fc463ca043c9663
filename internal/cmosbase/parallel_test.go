package cmosbase

import (
	"reflect"
	"testing"

	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Parallel batches reduce deterministically to the single-worker result.
func TestClassifyBatchParallelDeterministic(t *testing.T) {
	net := mlp(t, 61)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tensor.Vec{
		denseIntensity(net.Input.Size(), 62),
		denseIntensity(net.Input.Size(), 63),
		denseIntensity(net.Input.Size(), 64),
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 200+int64(i)) }
	serial, sSRep, err := b.ClassifyBatch(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, pSRep, err := b.ClassifyBatch(inputs, factory, sim.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sRep := sSRep.Detail.(Report)
	pRep := pSRep.Detail.(Report)
	if serial.Energy != par.Energy || serial.Latency != par.Latency || sRep.Counts != pRep.Counts {
		t.Fatalf("parallel diverged: %+v vs %+v", sRep.Counts, pRep.Counts)
	}
	if _, _, err := b.ClassifyBatch(nil, factory, sim.Options{Workers: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// ClassifyEach is the per-image primitive: results must be bit-identical for
// any worker count and its per-image predictions must match the serial
// single-image reference.
func TestClassifyEachMatchesSerialReference(t *testing.T) {
	net := mlp(t, 65)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tensor.Vec{
		denseIntensity(net.Input.Size(), 66),
		denseIntensity(net.Input.Size(), 67),
		denseIntensity(net.Input.Size(), 68),
		denseIntensity(net.Input.Size(), 69),
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 500+int64(i)) }
	one, oneReps, err := b.ClassifyEach(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, manyReps, err := b.ClassifyEach(inputs, factory, sim.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !reflect.DeepEqual(one[i], many[i]) || oneReps[i].Predicted != manyReps[i].Predicted {
			t.Fatalf("image %d diverged across worker counts", i)
		}
		refRes, refRep := b.Classify(inputs[i], factory(i))
		if !reflect.DeepEqual(one[i], refRes) || oneReps[i].Predicted != refRep.Predicted {
			t.Fatalf("image %d diverged from Classify: %+v vs %+v", i, one[i], refRes)
		}
	}
	if _, _, err := b.ClassifyEach(nil, factory, sim.Options{Workers: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Serial and parallel batch paths return the same aggregated shape:
// averaged counters, populated per-layer cycles, Predicted == -1.
func TestClassifyBatchAggregateShapeUnified(t *testing.T) {
	net := mlp(t, 75)
	b, err := New(net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []tensor.Vec{
		denseIntensity(net.Input.Size(), 76),
		denseIntensity(net.Input.Size(), 77),
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, 600+int64(i)) }
	_, sSRep, err := b.ClassifyBatch(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, pSRep, err := b.ClassifyBatch(inputs, factory, sim.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, srep := range []sim.Report{sSRep, pSRep} {
		rep := srep.Detail.(Report)
		if rep.Predicted != -1 {
			t.Fatalf("aggregate Predicted = %d, want -1", rep.Predicted)
		}
		if len(rep.LayerCycles) != len(net.Layers) {
			t.Fatalf("aggregate LayerCycles %d, want %d", len(rep.LayerCycles), len(net.Layers))
		}
	}
}
