package core

import (
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// TestEventEngineViaOptions: the per-call sim.Options toggle selects the
// event path on a chip constructed without it, and the batch runners return
// the same pipelined cycles as the serial path.
func TestEventEngineViaOptions(t *testing.T) {
	net := smallMLP(t, 4)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 20
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Vec, 6)
	rng := rand.New(rand.NewSource(9))
	for i := range inputs {
		inputs[i] = tensor.NewVec(net.Input.Size())
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()
		}
	}
	factory := func(i int) snn.Encoder { return snn.NewPoissonEncoder(0.8, int64(i)) }

	ref, refReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, gotReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: workers, EventEngine: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			rd := refReps[i].Detail.(Report)
			gd := gotReps[i].Detail.(Report)
			if gotReps[i].Predicted != refReps[i].Predicted || gd.Energy != rd.Energy {
				t.Fatalf("workers=%d image %d: prediction/energy diverged from stepped", workers, i)
			}
			if gd.Counts.Cycles > rd.Counts.Cycles {
				t.Fatalf("workers=%d image %d: event cycles %d exceed stepped %d",
					workers, i, gd.Counts.Cycles, rd.Counts.Cycles)
			}
			if got[i].Latency > ref[i].Latency {
				t.Fatalf("workers=%d image %d: event latency above stepped", workers, i)
			}
			if got[i].SpikesPerStep <= 0 || len(got[i].LayerOccupancy) != len(net.Layers) {
				t.Fatalf("workers=%d image %d: sparsity stats missing: %+v", workers, i, got[i])
			}
		}
	}
	// Determinism across repeated event-mode runs.
	a, aReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 2, EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	b, bReps, err := chip.ClassifyEach(inputs, factory, sim.Options{Workers: 4, EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !reflect.DeepEqual(a[i], b[i]) || aReps[i].Predicted != bReps[i].Predicted {
			t.Fatalf("image %d: event-mode results vary across worker counts", i)
		}
	}
}

// TestSparsityStats: the stepped path records the same spike-sparsity stats
// as the event path, and they are internally consistent.
func TestSparsityStats(t *testing.T) {
	net := smallMLP(t, 5)
	m := mapped(t, net, 16)
	opt := DefaultOptions()
	opt.Steps = 30
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	intensity := tensor.NewVec(net.Input.Size())
	rng := rand.New(rand.NewSource(6))
	for i := range intensity {
		intensity[i] = rng.Float64()
	}
	res, rep := chip.ClassifyDetailed(intensity, snn.NewPoissonEncoder(0.8, 2))
	var spikes int
	for _, s := range rep.LayerSpikes {
		spikes += s
	}
	want := float64(spikes) / float64(opt.Steps)
	if res.SpikesPerStep != want {
		t.Fatalf("SpikesPerStep = %v, want %v", res.SpikesPerStep, want)
	}
	if len(res.LayerOccupancy) != len(net.Layers) {
		t.Fatalf("LayerOccupancy has %d entries, want %d", len(res.LayerOccupancy), len(net.Layers))
	}
	for j, occ := range res.LayerOccupancy {
		wantOcc := float64(rep.LayerSpikes[j]) / float64(opt.Steps*net.Layers[j].OutSize())
		if occ != wantOcc {
			t.Fatalf("layer %d occupancy = %v, want %v", j, occ, wantOcc)
		}
		if occ < 0 || occ > 1 {
			t.Fatalf("layer %d occupancy %v out of [0,1]", j, occ)
		}
	}
}
