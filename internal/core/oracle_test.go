package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// oracle is the original step-major chip accountant, kept as a test-only
// reference. Each timestep it walks every MCA's input list against the
// spike vector and dedupes packet words per mPE run through a map, summing
// every phase's cycles serially and tallying each layer's events as
// integers: driven rows per crossbar-factor class (the factors computed per
// MCA from its own taps, classes numbered in order of first appearance).
// Its energies are its tallies priced by cost.Energy. The chip's
// accountant must reproduce its energies, counters and per-layer accounting
// bit for bit.
type oracle struct {
	chip        *Chip
	lo, hi      int
	owner       [][]int32 // per layer per group: the owner mPE
	cnt         Counters
	tally       []cost.Tally
	factors     [][]float64 // per layer: the crossbar-factor classes
	layerCycles []int
	busCycles   int
	breakdown   CycleBreakdown
	scratch     [][]int32
}

func newOracle(c *Chip) *oracle {
	n := len(c.Net.Layers)
	return &oracle{
		chip: c, lo: 0, hi: n,
		owner:       groupOwners(c.Map),
		tally:       make([]cost.Tally, n),
		factors:     make([][]float64, n),
		layerCycles: make([]int, n),
		scratch:     make([][]int32, n),
	}
}

// groupOwners returns, per layer per neuron group, the mPE holding the
// group's first MCA — the group's owner, to which every other mPE serving
// the group transfers its partial sums.
func groupOwners(m *mapping.Mapping) [][]int32 {
	owners := make([][]int32, len(m.Layers))
	for li := range m.Layers {
		lm := &m.Layers[li]
		owner := make([]int32, lm.Groups)
		for i := range owner {
			owner[i] = -1
		}
		for ai := range lm.MCAs {
			if g := lm.MCAs[ai].Group; owner[g] < 0 {
				owner[g] = int32(lm.MCAs[ai].MPE)
			}
		}
		owners[li] = owner
	}
	return owners
}

func (o *oracle) groupScratch(j, groups int) []int32 {
	if o.scratch[j] == nil {
		o.scratch[j] = make([]int32, groups)
	}
	return o.scratch[j]
}

// addRows tallies rows driven on an MCA whose crossbar factor is f into
// layer j's class of f, opening the class on its first appearance.
func (o *oracle) addRows(j int, f float64, rows int) {
	t := &o.tally[j]
	c := slices.Index(o.factors[j], f)
	if c < 0 {
		c = len(o.factors[j])
		o.factors[j] = append(o.factors[j], f)
		t.Rows = append(t.Rows, 0)
	}
	t.Rows[c] += rows
}

// ObserveStep implements snn.Observer: the stepped tally loop.
func (o *oracle) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c := o.chip
	p := c.Opt.Params
	w := c.Opt.PacketWidth
	ed := c.Opt.EventDriven
	cur := input
	for j := 0; j < o.hi-o.lo; j++ {
		gi := o.lo + j
		lm := &c.Map.Layers[gi]
		t := &o.tally[j]
		prevCnt := o.cnt

		// ---- Global control: event-flag synchronization (flags are read
		// eight NeuroCells per access) ----
		syncCycles := p.SyncCyclesPerNC * ((lm.NCLast - lm.NCFirst + 1 + 7) / 8)
		o.cnt.Cycles += syncCycles
		o.breakdown.Sync += syncCycles

		// ---- Global bus & SRAM (§3.1.3) ----
		if c.Map.CrossNC(gi) {
			zero, total := cur.ZeroPackets(w)
			sent := total - zero
			if !ed {
				sent = total
				zero = 0
			}
			t.BusChecked += total
			t.BusSent += sent
			o.cnt.BusWords += sent
			o.cnt.BusWordsSuppressed += zero
			// Broadcast serializes on the bus, several words per cycle.
			busCycles := (sent + p.BusWordsPerCycle - 1) / p.BusWordsPerCycle
			o.cnt.Cycles += busCycles
			o.busCycles += busCycles
			o.breakdown.Bus += busCycles
		}

		// ---- Switch network delivery + MCA activity ----
		// Spike packets are the width-bit aligned words of the producer
		// layer's spike vector, zero-checked at the sending switch (§3.2)
		// and delivered once per target mPE (the mPE's buffers fan a word
		// out to its resident MCAs). Precompute word occupancy once.
		nonzeroWord := wordOccupancy(cur, w)
		delivered := 0
		maxMux := int32(0)
		ga := o.groupScratch(j, lm.Groups)
		for i := range ga {
			ga[i] = 0
		}
		// Per-mPE delivery accounting: MCAs of one mPE are contiguous in
		// allocation order; each mPE checks each of its source words once.
		curMPE := -1
		mpeSeen := map[int]bool{}
		flushMPE := func() {
			for word := range mpeSeen {
				t.Checked++
				if nonzeroWord[word] || !ed {
					delivered++
				} else {
					o.cnt.PacketsSuppressed++
				}
				delete(mpeSeen, word)
			}
		}
		for ai := range lm.MCAs {
			mca := &lm.MCAs[ai]
			if mca.MPE != curMPE {
				flushMPE()
				curMPE = mca.MPE
			}
			rows := 0
			ins := mca.Inputs
			for _, in := range ins {
				mpeSeen[int(in)/w] = true
				if cur.Get(int(in)) {
					rows++
				}
			}

			// Crossbar: every cross-point on a driven row conducts; used
			// cells at programmed conductance, idle cells at the GMin pair
			// (unless the counterfactual column gating is enabled).
			usedPerRow := 0.0
			if len(ins) > 0 {
				usedPerRow = float64(mca.Taps) / float64(len(ins))
			}
			idlePerRow := float64(c.Map.LayerSize(gi)) - usedPerRow
			if p.GateIdleColumns {
				idlePerRow = 0
			}
			o.addRows(j, usedPerRow*p.XbarCellActive+idlePerRow*p.XbarCellActive*p.XbarIdleFrac, rows)

			active := rows > 0
			if !ed {
				active = true
			}
			if !active {
				continue
			}
			o.cnt.MCAActivations++
			o.cnt.RowsDriven += rows
			t.Active++
			// Neuron integration of this MCA's columns.
			o.cnt.Integrations += len(mca.Outputs)
			t.Integrations += len(mca.Outputs)
			if int32(mca.MPE) != o.owner[gi][mca.Group] {
				o.cnt.ExtTransfers++
				t.Ext++
			}
			if ga[mca.Group]++; ga[mca.Group] > maxMux {
				maxMux = ga[mca.Group]
			}
		}
		flushMPE()
		o.cnt.PacketsDelivered += delivered
		t.Delivered += delivered
		sw := lm.Switches(c.Map.Cfg)
		deliveryCycles := (delivered + sw - 1) / sw
		o.cnt.Cycles += deliveryCycles
		o.breakdown.Delivery += deliveryCycles
		integrateCycles := int(maxMux) * p.IntegrateCycles
		o.cnt.Cycles += integrateCycles
		o.breakdown.Integrate += integrateCycles

		// ---- Fire ----
		out := layers[j]
		spikes := out.Count()
		o.cnt.Spikes += spikes
		t.Spikes += spikes
		// Spikes drain through the mPEs' output ports in parallel, one per
		// mPE per cycle.
		if spikes > 0 || maxMux > 0 {
			mpes := lm.MPELast - lm.MPEFirst + 1
			drainCycles := (spikes + mpes - 1) / mpes
			if spikes == 0 {
				drainCycles++ // threshold-check cycle with no spikes
			}
			o.cnt.Cycles += drainCycles
			o.breakdown.Drain += drainCycles
		}
		o.layerCycles[j] += o.cnt.Cycles - prevCnt.Cycles
		cur = out
	}
}

// wordOccupancy returns, per width-bit aligned word of the spike vector,
// whether it contains at least one spike.
func wordOccupancy(v *bitvec.Bits, width int) []bool {
	n := (v.Len() + width - 1) / width
	out := make([]bool, n)
	v.ForEachSet(func(i int) { out[i/width] = true })
	return out
}

// report prices the oracle's tallies and reduces its accounting the way
// the chip reports it, with Cycles the serial sum of every stage.
func (o *oracle) report(predicted int) Report {
	c := o.chip
	layerE := make([]perf.RESPARCEnergy, len(o.tally))
	layerSpikes := make([]int, len(o.tally))
	for j := range o.tally {
		t := &o.tally[j]
		layerE[j] = cost.Energy(c.Opt.Params, c.sram.AccessEnergy(), o.lo+j == 0, o.factors[j], t)
		layerSpikes[j] = t.Spikes
	}
	return Report{
		Energy: perf.SumRESPARC(layerE), Latency: float64(o.cnt.Cycles) * c.Opt.Params.NCCycle(),
		Counts: o.cnt, Predicted: predicted,
		LayerCycles: o.layerCycles, LayerEnergies: layerE, LayerSpikes: layerSpikes,
		BusCycles: o.busCycles, Breakdown: o.breakdown,
	}
}

// oracleCase is one accounting configuration of the cross.
type oracleCase struct {
	eventDriven bool
	width       int
	gate        bool
	earlyExit   bool
}

func (c oracleCase) String() string {
	return fmt.Sprintf("ed=%v/w=%d/gate=%v/early=%v", c.eventDriven, c.width, c.gate, c.earlyExit)
}

// oracleCases covers every value of each knob — the §3.2 zero-check gating
// on and off (Fig 13's w/ and w/o), narrow and full packets, idle-column
// gating and the early-exit runner — with each pair of knob values
// appearing together at least once.
var oracleCases = []oracleCase{
	{true, 64, false, false},
	{false, 64, true, false},
	{true, 16, true, true},
	{false, 16, false, true},
	{true, 16, false, false},
	{false, 64, false, true},
	{true, 64, true, true},
	{false, 16, true, false},
}

// oracleRun classifies one input through the oracle with the same runner the
// chip uses for the options and returns its report.
func oracleRun(chip *Chip, in tensor.Vec, enc snn.Encoder, early bool) Report {
	o := newOracle(chip)
	var r [1]snn.RunResult
	sim.Run([]snn.Member{{State: snn.NewState(chip.Net), Input: in, Enc: enc, Obs: o}}, chip.Opt.Steps, 0, sim.Options{EarlyExit: early}, r[:])
	return o.report(r[0].Prediction)
}

// TestEventSteppedBitIdentical pins the chip's accountant to the stepped
// oracle on all six Fig 10 networks across MCA sizes 32/64/128 and the
// accounting knobs: predictions, energies, per-layer energies, counters
// (Cycles the serial sum), the phase breakdown, per-layer cycles and spike
// counts must match bit for bit. The per-call EventEngine reduction may
// change only Cycles/Latency — to the pipelined makespan, never above the
// serial sum, whose phases the breakdown still adds up to.
func TestEventSteppedBitIdentical(t *testing.T) {
	const steps = 6
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
		for si, size := range []int{32, 64, 128} {
			cfg := mapping.DefaultConfig()
			cfg.MCASize = size
			m, err := mapping.Map(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Rotate the cases over (network, size): each size runs three
			// of them and every case runs on every network.
			for ci := range 3 {
				tc := oracleCases[(bi+si*3+ci)%len(oracleCases)]
				name := fmt.Sprintf("%s/mca%d/%s", b.Name, size, tc)
				opt := DefaultOptions()
				opt.Steps = steps
				opt.EventDriven = tc.eventDriven
				opt.PacketWidth = tc.width
				opt.Params.GateIdleColumns = tc.gate
				chip, err := New(net, m, opt)
				if err != nil {
					t.Fatal(err)
				}
				enc := snn.NewPoissonEncoder(0.8, int64(7+bi))
				want := oracleRun(chip, in, enc.ForkSeed(0), tc.earlyExit)
				factory := func(i int) snn.Encoder { return enc.ForkSeed(i) }
				for _, pipelined := range []bool{false, true} {
					_, reps, err := chip.ClassifyEach([]tensor.Vec{in}, factory,
						sim.Options{Workers: 1, EarlyExit: tc.earlyExit, EventEngine: pipelined})
					if err != nil {
						t.Fatal(err)
					}
					checkOracle(t, fmt.Sprintf("%s/pipelined=%v", name, pipelined), reps[0].Detail.(Report), want, pipelined)
				}
			}
		}
	}
}

func checkOracle(t *testing.T, name string, got, want Report, pipelined bool) {
	t.Helper()
	if got.Predicted != want.Predicted {
		t.Fatalf("%s: predicted %d, oracle %d", name, got.Predicted, want.Predicted)
	}
	if got.Energy != want.Energy {
		t.Fatalf("%s: energy %+v, oracle %+v", name, got.Energy, want.Energy)
	}
	if !reflect.DeepEqual(got.LayerEnergies, want.LayerEnergies) {
		t.Fatalf("%s: per-layer energies %+v, oracle %+v", name, got.LayerEnergies, want.LayerEnergies)
	}
	if got.Breakdown != want.Breakdown || got.BusCycles != want.BusCycles {
		t.Fatalf("%s: breakdown %+v bus %d, oracle %+v bus %d", name, got.Breakdown, got.BusCycles, want.Breakdown, want.BusCycles)
	}
	if !reflect.DeepEqual(got.LayerCycles, want.LayerCycles) {
		t.Fatalf("%s: layer cycles %v, oracle %v", name, got.LayerCycles, want.LayerCycles)
	}
	if !reflect.DeepEqual(got.LayerSpikes, want.LayerSpikes) {
		t.Fatalf("%s: layer spikes %v, oracle %v", name, got.LayerSpikes, want.LayerSpikes)
	}
	if got.Breakdown.Total() != want.Counts.Cycles {
		t.Fatalf("%s: breakdown sums to %d, oracle serial cycles %d", name, got.Breakdown.Total(), want.Counts.Cycles)
	}
	gc := got.Counts
	if pipelined {
		if gc.Cycles > want.Counts.Cycles {
			t.Fatalf("%s: pipelined cycles %d exceed the serial sum %d", name, gc.Cycles, want.Counts.Cycles)
		}
		lower := got.BusCycles
		for _, lc := range got.LayerCycles {
			lower = max(lower, lc)
		}
		if gc.Cycles < lower {
			t.Fatalf("%s: pipelined cycles %d below the structural bound %d", name, gc.Cycles, lower)
		}
		gc.Cycles = want.Counts.Cycles
	} else if got.Latency != want.Latency {
		t.Fatalf("%s: latency %v, oracle %v", name, got.Latency, want.Latency)
	}
	if gc != want.Counts {
		t.Fatalf("%s: counters %+v, oracle %+v", name, got.Counts, want.Counts)
	}
}

// checkChipOracle classifies in once on a chip over (net, m) with the given
// options and checks its report against the oracle's bit for bit.
func checkChipOracle(t *testing.T, name string, net *snn.Network, m *mapping.Mapping, opt Options, in tensor.Vec) {
	t.Helper()
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc := snn.NewPoissonEncoder(0.8, 7)
	want := oracleRun(chip, in, enc.ForkSeed(0), false)
	_, reps, err := chip.ClassifyEach([]tensor.Vec{in},
		func(i int) snn.Encoder { return enc.ForkSeed(i) }, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, name, reps[0].Detail.(Report), want, false)
}

// TestAccountantRowMultiplicityAndOrder hand-edits the mapping so that, in
// every layer, the first MCA lists its first input twice in a row (one
// storage word, two rows) and the last MCA lists its inputs in reverse. The
// accountant must still match the oracle bit for bit with zero-check gating
// on and off: a repeated input drives one row per listing, and packet words
// are charged in each MCA's list order, not in input order.
func TestAccountantRowMultiplicityAndOrder(t *testing.T) {
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		net, m, in := fig10Mapping(t, name)
		// Saturate the input so the repeated layer-0 input spikes.
		for i := range in {
			in[i] = 1
		}
		for li := range m.Layers {
			mcas := m.Layers[li].MCAs
			dup := &mcas[0]
			dup.Inputs = slices.Clone(dup.Inputs)
			dup.Inputs[1] = dup.Inputs[0]
			rev := &mcas[len(mcas)-1]
			rev.Inputs = slices.Clone(rev.Inputs)
			slices.Reverse(rev.Inputs)
		}
		for _, ed := range []bool{true, false} {
			for _, w := range []int{16, 64} {
				opt := DefaultOptions()
				opt.Steps = 6
				opt.EventDriven = ed
				opt.PacketWidth = w
				checkChipOracle(t, fmt.Sprintf("%s/ed=%v/w=%d", name, ed, w), net, m, opt, in)
			}
		}
	}
}

// TestEventSteppedStraddlingPacketWidths runs the oracle at packet widths
// whose words straddle the 64-bit storage words (and at one-bit packets),
// so packet occupancy is read across storage-word boundaries.
func TestEventSteppedStraddlingPacketWidths(t *testing.T) {
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		net, m, in := fig10Mapping(t, name)
		for _, w := range []int{1, 24, 63} {
			for _, ed := range []bool{true, false} {
				opt := DefaultOptions()
				opt.Steps = 6
				opt.EventDriven = ed
				opt.PacketWidth = w
				checkChipOracle(t, fmt.Sprintf("%s/ed=%v/w=%d", name, ed, w), net, m, opt, in)
			}
		}
	}
}
