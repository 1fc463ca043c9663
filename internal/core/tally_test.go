package core

import (
	"fmt"
	"slices"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/cost"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/snn"
)

// TestEnergyIsPricedTallies: on the six Fig 10 networks, with zero-check
// gating on and off and at packet widths 1, 24 and 64, every layer's
// reported energy is exactly its tally priced by cost.Energy, the total is
// exactly perf.SumRESPARC of the layers, the result's energy exactly the
// total's Total, and the counters exactly the tallies summed over layers.
func TestEnergyIsPricedTallies(t *testing.T) {
	const steps = 4
	for bi, b := range bench.All() {
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		set := dataset.Generate(b.Dataset, 1, 101)
		in, err := bench.PrepareInput(set.Samples[0].Input, set.Shape, net.Input)
		if err != nil {
			t.Fatal(err)
		}
		in = bench.NormalizeIntensity(in)
		m, err := mapping.Map(net, mapping.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range []bool{true, false} {
			for _, w := range []int{1, 24, 64} {
				name := fmt.Sprintf("%s/ed=%v/w=%d", b.Name, ed, w)
				opt := DefaultOptions()
				opt.Steps = steps
				opt.EventDriven = ed
				opt.PacketWidth = w
				chip, err := New(net, m, opt)
				if err != nil {
					t.Fatal(err)
				}
				obs := newObserver(chip)
				run := snn.NewState(net).RunBlockedK(in, snn.NewPoissonEncoder(0.8, int64(bi)), steps, 0, obs)
				res, rep := obs.report(run.Prediction, steps, false)

				var cnt Counters
				cnt.Cycles = rep.Counts.Cycles
				for j := range obs.tally {
					tl := &obs.tally[j]
					want := cost.Energy(opt.Params, chip.sram.AccessEnergy(), j == 0, chip.layerPlans()[j].g.Factors, tl)
					if rep.LayerEnergies[j] != want {
						t.Fatalf("%s layer %d: energy %+v, its tally prices to %+v", name, j, rep.LayerEnergies[j], want)
					}
					if rep.LayerSpikes[j] != tl.Spikes {
						t.Fatalf("%s layer %d: %d spikes, tally %d", name, j, rep.LayerSpikes[j], tl.Spikes)
					}
					cnt.BusWords += tl.BusSent
					cnt.BusWordsSuppressed += tl.BusChecked - tl.BusSent
					cnt.PacketsDelivered += tl.Delivered
					cnt.PacketsSuppressed += tl.Checked - tl.Delivered
					cnt.MCAActivations += tl.Active
					cnt.RowsDriven += tl.RowsDriven()
					cnt.Integrations += tl.Integrations
					cnt.Spikes += tl.Spikes
					cnt.ExtTransfers += tl.Ext
				}
				if cnt != rep.Counts {
					t.Fatalf("%s: counters %+v, tallies sum to %+v", name, rep.Counts, cnt)
				}
				if rep.Energy != perf.SumRESPARC(rep.LayerEnergies) || res.Energy != rep.Energy.Total() {
					t.Fatalf("%s: energy %+v (total %v) is not the sum of its layers %+v", name, rep.Energy, res.Energy, rep.LayerEnergies)
				}
				if rep.Energy.Total() <= 0 {
					t.Fatalf("%s: no energy charged", name)
				}
			}
		}
	}
}

// TestAccountantSharedGatherLists hand-edits one layer of each network so
// that its second MCA gathers exactly the first's input list and its third
// the first's list without its last input, which shares a storage word with
// the input before it (one mask bit fewer). The gather must store the
// shared list once and the near-copy separately, and the accountant must
// still match the oracle, which walks every MCA's inputs on its own, bit
// for bit.
func TestAccountantSharedGatherLists(t *testing.T) {
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		net, m, in := fig10Mapping(t, name)
		for i := range in {
			in[i] = 1
		}
		li := sharedListLayer(m)
		if li < 0 {
			t.Fatalf("%s: no layer has an MCA whose last two inputs share a storage word", name)
		}
		mcas := m.Layers[li].MCAs
		ins := mcas[0].Inputs
		mcas[1].Inputs = slices.Clone(ins)
		mcas[2].Inputs = slices.Clone(ins[:len(ins)-1])
		for _, ed := range []bool{true, false} {
			for _, w := range []int{16, 64} {
				opt := DefaultOptions()
				opt.Steps = 6
				opt.EventDriven = ed
				opt.PacketWidth = w
				chip, err := New(net, m, opt)
				if err != nil {
					t.Fatal(err)
				}
				g := &chip.layerPlans()[li].g
				if g.MCAs[1].List != g.MCAs[0].List || g.MCAs[2].List == g.MCAs[0].List {
					t.Fatalf("%s layer %d: lists %d %d %d, want the first two shared and the third distinct",
						name, li, g.MCAs[0].List, g.MCAs[1].List, g.MCAs[2].List)
				}
				checkChipOracle(t, fmt.Sprintf("%s/layer%d/ed=%v/w=%d", name, li, ed, w), net, m, opt, in)
			}
		}
	}
}

// sharedListLayer finds a layer with at least three MCAs whose first MCA's
// last two inputs share a storage word, or returns -1.
func sharedListLayer(m *mapping.Mapping) int {
	for li := range m.Layers {
		lm := &m.Layers[li]
		if len(lm.MCAs) < 3 {
			continue
		}
		if ins := lm.MCAs[0].Inputs; len(ins) >= 2 && ins[len(ins)-1]>>6 == ins[len(ins)-2]>>6 {
			return li
		}
	}
	return -1
}
