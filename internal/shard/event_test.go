package shard

import (
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/sim"
)

// TestShardEventSteppedEquivalence is the satellite acceptance check for the
// multi-chip event engine: for every benchmark and N in {1, 2, 4},
// predictions, chip event counters (except Cycles) and chip energies under
// sim.Options.EventEngine are bit-identical to stepped sharded accounting,
// and the global makespan respects its structural bounds. Run with -race:
// images fan out across workers that share the chip's session pool.
func TestShardEventSteppedEquivalence(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 2)
			for _, n := range []int{1, 2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				sRess, sReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				eRess, eReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{EventEngine: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					sd := sReps[i].Detail.(Report)
					ed := eReps[i].Detail.(Report)
					if sReps[i].Predicted != eReps[i].Predicted {
						t.Fatalf("x%d image %d: predicted %d (stepped) vs %d (event)",
							n, i, sReps[i].Predicted, eReps[i].Predicted)
					}
					if sd.Chip.Energy != ed.Chip.Energy || sRess[i].Energy != eRess[i].Energy {
						t.Fatalf("x%d image %d: energies diverged: %+v vs %+v",
							n, i, sd.Chip.Energy, ed.Chip.Energy)
					}
					if !reflect.DeepEqual(sd.Chip.LayerEnergies, ed.Chip.LayerEnergies) {
						t.Fatalf("x%d image %d: per-layer energies diverged", n, i)
					}
					sc, ec := sd.Chip.Counts, ed.Chip.Counts
					sc.Cycles, ec.Cycles = 0, 0
					if sc != ec {
						t.Fatalf("x%d image %d: counters diverged (beyond Cycles):\nstepped: %+v\nevent:   %+v",
							n, i, sc, ec)
					}
					// Link traffic (flits, energy) is flow-control independent.
					sl, el := sd.Link, ed.Link
					sl.WaitCycles, el.WaitCycles = 0, 0
					if sl != el {
						t.Fatalf("x%d image %d: link accounting diverged: %+v vs %+v", n, i, sl, el)
					}
					// The global pipelined makespan must beat the serial sum and
					// cover every shard's own lower bound.
					if ed.Chip.Counts.Cycles >= sd.Chip.Counts.Cycles+sd.Link.Cycles {
						t.Fatalf("x%d image %d: event makespan %d not below serial %d+%d",
							n, i, ed.Chip.Counts.Cycles, sd.Chip.Counts.Cycles, sd.Link.Cycles)
					}
					var pipe cost.Pipeline
					for s, r := range ed.Ranges {
						own, _, _ := pipe.Makespan([][][]cost.Stage{columns(ed.Chip.Stages, r)}, nil, 0)
						if int64(ed.Chip.Counts.Cycles) < own {
							t.Fatalf("x%d image %d: makespan %d below shard %d's own makespan %d",
								n, i, ed.Chip.Counts.Cycles, s, own)
						}
					}
					// Without the option the chip keeps the paper's serial
					// sum even though it carries the stage grid.
					if sd.Chip.Counts.Cycles != sd.Chip.Breakdown.Total() || sd.Chip.BusWait != 0 || sd.Link.WaitCycles != 0 {
						t.Fatalf("x%d image %d: default run not the serial sum: cycles %d, breakdown %d, bus wait %d, link wait %d",
							n, i, sd.Chip.Counts.Cycles, sd.Chip.Breakdown.Total(), sd.Chip.BusWait, sd.Link.WaitCycles)
					}
					if n == 1 && ed.Link.WaitCycles != 0 {
						t.Fatalf("x1 reports link wait %d with no links", ed.Link.WaitCycles)
					}
				}
			}
		})
	}
}

// columns returns shard r's part of a whole-chip stage grid: the stages of
// layers [r.Lo, r.Hi) at every timestep.
func columns(grid [][]cost.Stage, r Range) [][]cost.Stage {
	out := make([][]cost.Stage, len(grid))
	for t, row := range grid {
		out[t] = row[r.Lo:r.Hi]
	}
	return out
}

// TestShardEventMatchesSingleChipEvent: with one shard the global DES reduces
// to the single-chip pipeline simulation — Cycles, BusWait and stage grids
// must match core's event path exactly.
func TestShardEventMatchesSingleChipEvent(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 2)
	refRess, refReps, err := chip.ClassifyEach(inputs, factoryFor(7), sim.Options{Workers: 1, EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(chip, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ress, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		ref := refReps[i].Detail.(core.Report)
		got := reps[i].Detail.(Report)
		if got.Chip.Counts != ref.Counts {
			t.Fatalf("image %d: counters diverged\nsharded x1: %+v\nsingle:     %+v", i, got.Chip.Counts, ref.Counts)
		}
		if got.Chip.BusWait != ref.BusWait {
			t.Fatalf("image %d: bus wait %d vs single-chip %d", i, got.Chip.BusWait, ref.BusWait)
		}
		if ress[i].Latency != refRess[i].Latency || ress[i].Energy != refRess[i].Energy {
			t.Fatalf("image %d: result diverged: %+v vs %+v", i, ress[i], refRess[i])
		}
		if !reflect.DeepEqual(got.Chip.Stages, ref.Stages) {
			t.Fatalf("image %d: stage grids diverged", i)
		}
	}
}

// TestShardEventDeterministic: event-mode sharded results are a pure function
// of the inputs — identical across repeated runs and block sizes (a block
// of one timestep is the step-major loop nest).
func TestShardEventDeterministic(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 4)
	multi, err := New(chip, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, aReps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []sim.Options{
		{EventEngine: true},
		{EventEngine: true, BlockSize: 1},
	} {
		g, gReps, err := multi.ClassifyEach(inputs, factoryFor(7), opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			if !reflect.DeepEqual(a[i], g[i]) || aReps[i].Predicted != gReps[i].Predicted {
				t.Fatalf("opt %+v image %d: results vary across runs", opt, i)
			}
			ad := aReps[i].Detail.(Report)
			gd := gReps[i].Detail.(Report)
			if ad.Chip.Counts != gd.Chip.Counts || !reflect.DeepEqual(ad.Hops, gd.Hops) {
				t.Fatalf("opt %+v image %d: accounting varies across runs", opt, i)
			}
		}
	}
}

// TestShardEventBackpressure: squeezing the receive buffer to one raster and
// the channel to one flit per cycle must surface link wait on a real
// boundary — the flow control is live, not decorative.
func TestShardEventBackpressure(t *testing.T) {
	b := bench.All()[0]
	chip := chipFor(t, b)
	inputs := benchInputs(t, b, chip.Net, 1)
	link := cost.DefaultLink(chip.Opt.Params)
	link.FlitsPerCycle = 1
	link.RecvBuf = 1
	multi, err := New(chip, Config{Shards: 2, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	_, reps, err := multi.ClassifyEach(inputs, factoryFor(7), sim.Options{EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	d := reps[0].Detail.(Report)
	if d.Link.WaitCycles == 0 {
		t.Fatal("narrow link with a one-raster receive buffer shows zero wait")
	}
	// A wide, deeply buffered link must wait strictly less.
	wide := cost.DefaultLink(chip.Opt.Params)
	wide.FlitsPerCycle = 64
	wide.RecvBuf = 64
	multiW, err := New(chip, Config{Shards: 2, Link: wide})
	if err != nil {
		t.Fatal(err)
	}
	_, repsW, err := multiW.ClassifyEach(inputs, factoryFor(7), sim.Options{EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	dw := repsW[0].Detail.(Report)
	if dw.Link.WaitCycles >= d.Link.WaitCycles {
		t.Fatalf("wide link waits %d >= narrow link %d", dw.Link.WaitCycles, d.Link.WaitCycles)
	}
}
