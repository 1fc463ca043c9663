package shard

import (
	"fmt"
	"reflect"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// This file keeps the per-range executor that the sliced whole-chip run
// replaced, as a test oracle. Each shard ran its own sub-network on its own
// range accountant (core.Chip.NewAccountant(lo, hi)); every non-final shard's
// boundary raster was captured with snn.CaptureObserver, priced hop by hop
// and replayed into the next shard with snn.ReplayEncoder; and the per-shard
// reports were merged in global layer order. The code is that executor
// verbatim apart from the session pooling (the oracle keeps one session and
// runs images one at a time). TestMatchesRangeOracle pins every per-image
// and batch perf.Result and Report of Multi to it bit for bit: each range
// accountant tallies its layers' integer counts and prices every layer
// once (cost.Energy), so the ranges' layer energies are the whole chip's
// exactly.

// oracle is the per-range executor over one Multi's partition.
type oracle struct {
	m       *Multi
	subnets []*snn.Network
	stages  []oracleStage
	rasters [][]*bitvec.Bits // rasters[h]: shard h's boundary spikes into shard h+1
}

// oracleStage is one shard's simulation state and range accountant.
type oracleStage struct {
	st   *snn.State
	acct *core.Accountant
}

func newOracle(m *Multi) (*oracle, error) {
	chip := m.chip
	layers := chip.Net.Layers
	o := &oracle{m: m, rasters: make([][]*bitvec.Bits, len(m.ranges)-1)}
	for i, r := range m.ranges {
		in := chip.Net.Input
		if r.Lo > 0 {
			in = layers[r.Lo].In
		}
		sub, err := snn.NewNetwork(fmt.Sprintf("%s/shard%d", chip.Net.Name, i), in, layers[r.Lo:r.Hi]...)
		if err != nil {
			return nil, err
		}
		acct, err := chip.NewAccountant(r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		o.subnets = append(o.subnets, sub)
		o.stages = append(o.stages, oracleStage{st: snn.NewState(sub), acct: acct})
	}
	for h := range o.rasters {
		raster := make([]*bitvec.Bits, chip.Opt.Steps)
		for t := range raster {
			raster[t] = bitvec.New(o.subnets[h+1].Input.Size())
		}
		o.rasters[h] = raster
	}
	return o, nil
}

// classifyOne runs one image through every shard in order and returns the
// merged result plus each shard's own report.
func (o *oracle) classifyOne(intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, sim.Report, []core.Report) {
	S := len(o.m.ranges)
	parts := make([]core.Report, S)
	hops := make([]LinkStats, S-1)
	hopSteps := make([][]int64, S-1)
	predicted := 0
	var in []*bitvec.Bits
	for i, w := range o.stages {
		var out []*bitvec.Bits
		if i < S-1 {
			out = o.rasters[i]
		}
		parts[i], predicted = o.runStage(i, w.st, w.acct, intensity, enc, in, out, opt)
		if out != nil {
			hops[i], hopSteps[i] = o.linkCost(out, opt.EventEngine)
		}
		in = out
	}
	res, rep := o.finish(parts, hops, hopSteps, predicted, opt.EventEngine)
	return res, rep, parts
}

func (o *oracle) linkCost(raster []*bitvec.Bits, perStep bool) (LinkStats, []int64) {
	var st LinkStats
	var steps []int64
	if perStep {
		steps = make([]int64, 0, len(raster))
	}
	for _, bits := range raster {
		h := o.m.cfg.Link.Raster(bits)
		st.FlitsSent += h.Sent
		st.FlitsSuppressed += h.Suppressed
		st.EnergyJ += h.EnergyJ
		st.Cycles += h.Cycles
		if perStep {
			steps = append(steps, int64(h.Cycles))
		}
	}
	return st, steps
}

func (o *oracle) runStage(s int, st *snn.State, acct *core.Accountant, intensity tensor.Vec, enc snn.Encoder,
	in, out []*bitvec.Bits, opt sim.Options) (core.Report, int) {
	chip := o.m.chip
	acct.Reset()
	var obs snn.Observer = acct
	if out != nil {
		obs = &snn.CaptureObserver{Inner: acct, Out: out}
	}
	if s > 0 {
		enc = &snn.ReplayEncoder{Raster: in}
		intensity = nil
	}
	var r [1]snn.RunResult
	sim.Run([]snn.Member{{State: st, Input: intensity, Enc: enc, Obs: obs}}, chip.Opt.Steps, chip.Opt.BlockSize, opt, r[:])
	steps, predicted := r[0].Steps, r[0].Prediction
	_, rep := acct.Report(predicted, steps)
	if opt.EventEngine {
		rep.Pipeline(chip.Opt.Params.NCCycle())
	}
	return rep, predicted
}

func (o *oracle) finish(parts []core.Report, hops []LinkStats, hopSteps [][]int64, predicted int, pipelined bool) (perf.Result, sim.Report) {
	m := o.m
	chip := o.mergeChip(parts)
	chip.Predicted = predicted
	ncc := m.chip.Opt.Params.NCCycle()
	steps := m.chip.Opt.Steps
	linkSeconds := 0.0
	if pipelined {
		grids := make([][][]cost.Stage, len(parts))
		for s := range parts {
			grids[s] = parts[s].Stages
		}
		var pipe cost.Pipeline
		makespan, lw, busWait := pipe.Makespan(grids, hopSteps, m.cfg.Link.RecvBuf)
		for h := range lw {
			hops[h].WaitCycles = int(lw[h])
		}
		chip.Counts.Cycles = int(makespan)
		chip.BusWait = busWait
		chip.Latency = float64(makespan) * ncc
	} else {
		var cyc int
		for _, h := range hops {
			cyc += h.Cycles
		}
		linkSeconds = float64(cyc) * ncc
	}
	var link LinkStats
	interval := 0.0
	for _, h := range hops {
		link = addLink(link, h)
		if s := float64(h.Cycles) * ncc; s > interval {
			interval = s
		}
	}
	for _, p := range parts {
		if p.Latency > interval {
			interval = p.Latency
		}
	}
	rep := Report{
		Ranges: m.Ranges(), Chip: chip, Link: link, Hops: hops,
		Interval: interval, Predicted: predicted,
	}
	res := perf.Result{
		Arch:    m.name,
		Network: m.chip.Net.Name,
		Energy:  chip.Energy.Total() + link.EnergyJ,
		Latency: chip.Latency + linkSeconds,
		Steps:   steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = o.sparsity(chip.LayerSpikes, 1, steps)
	return res, sim.Report{Predicted: predicted, Steps: steps, Detail: rep}
}

func (o *oracle) sparsity(layerSpikes []int, images, steps int) (float64, []float64) {
	if images <= 0 || steps <= 0 || len(layerSpikes) == 0 {
		return 0, nil
	}
	total := 0
	occ := make([]float64, len(layerSpikes))
	for li, sp := range layerSpikes {
		total += sp
		if n := o.m.chip.Net.Layers[li].OutSize(); n > 0 {
			occ[li] = float64(sp) / (float64(images) * float64(steps) * float64(n))
		}
	}
	return float64(total) / (float64(images) * float64(steps)), occ
}

func (o *oracle) mergeChip(parts []core.Report) core.Report {
	var out core.Report
	for _, p := range parts {
		out.Counts = addCounters(out.Counts, p.Counts)
		out.BusCycles += p.BusCycles
		out.Breakdown = addBreakdown(out.Breakdown, p.Breakdown)
		out.LayerCycles = append(out.LayerCycles, p.LayerCycles...)
		out.LayerEnergies = append(out.LayerEnergies, p.LayerEnergies...)
		out.LayerSpikes = append(out.LayerSpikes, p.LayerSpikes...)
		if p.TraceError != nil && out.TraceError == nil {
			out.TraceError = p.TraceError
		}
	}
	out.Energy = perf.SumRESPARC(out.LayerEnergies)
	out.Latency = float64(out.Counts.Cycles) * o.m.chip.Opt.Params.NCCycle()
	return out
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

func addBreakdown(a, b core.CycleBreakdown) core.CycleBreakdown {
	a.Sync += b.Sync
	a.Bus += b.Bus
	a.Delivery += b.Delivery
	a.Integrate += b.Integrate
	a.Drain += b.Drain
	return a
}

// reduce is the batch reduction of the per-range executor's ClassifyBatch
// over per-image results and reports in input order.
func (o *oracle) reduce(ress []perf.Result, sreps []sim.Report) (perf.Result, sim.Report) {
	m := o.m
	n := float64(len(sreps))
	var total core.Report
	var link LinkStats
	var hops []LinkStats
	var interval, energy, latency float64
	for i, sr := range sreps {
		d := sr.Detail.(Report)
		if hops == nil {
			hops = make([]LinkStats, len(d.Hops))
		}
		for h, hs := range d.Hops {
			hops[h] = addLink(hops[h], hs)
		}
		total.Latency += d.Chip.Latency
		total.Counts = addCounters(total.Counts, d.Chip.Counts)
		total.BusCycles += d.Chip.BusCycles
		total.Breakdown = addBreakdown(total.Breakdown, d.Chip.Breakdown)
		total.BusWait += d.Chip.BusWait
		if total.LayerCycles == nil {
			total.LayerCycles = make([]int, len(d.Chip.LayerCycles))
			total.LayerEnergies = make([]perf.RESPARCEnergy, len(d.Chip.LayerEnergies))
			total.LayerSpikes = make([]int, len(d.Chip.LayerSpikes))
		}
		for li, cyc := range d.Chip.LayerCycles {
			total.LayerCycles[li] += cyc
		}
		for li, sp := range d.Chip.LayerSpikes {
			total.LayerSpikes[li] += sp
		}
		for li, le := range d.Chip.LayerEnergies {
			total.LayerEnergies[li].Neuron += le.Neuron
			total.LayerEnergies[li].Crossbar += le.Crossbar
			total.LayerEnergies[li].Peripherals += le.Peripherals
		}
		link = addLink(link, d.Link)
		interval += d.Interval
		energy += ress[i].Energy
		latency += ress[i].Latency
	}
	for li := range total.LayerEnergies {
		total.LayerEnergies[li].Neuron /= n
		total.LayerEnergies[li].Crossbar /= n
		total.LayerEnergies[li].Peripherals /= n
	}
	avgChip := core.Report{
		Energy:        perf.SumRESPARC(total.LayerEnergies),
		Latency:       total.Latency / n,
		Counts:        total.Counts,
		BusCycles:     total.BusCycles,
		Breakdown:     total.Breakdown,
		BusWait:       total.BusWait,
		LayerCycles:   total.LayerCycles,
		LayerEnergies: total.LayerEnergies,
		LayerSpikes:   total.LayerSpikes,
		Predicted:     -1,
	}
	rep := Report{
		Ranges: m.Ranges(), Chip: avgChip, Link: link, Hops: hops,
		Interval: interval / n, Predicted: -1,
	}
	res := perf.Result{
		Arch:    m.name,
		Network: m.chip.Net.Name,
		Energy:  energy / n,
		Latency: latency / n,
		Steps:   m.chip.Opt.Steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = o.sparsity(total.LayerSpikes, len(sreps), m.chip.Opt.Steps)
	return res, sim.Report{Predicted: -1, Steps: m.chip.Opt.Steps, Detail: rep}
}

// TestMatchesRangeOracle: on every Fig 10 network at 1, 2 and 4 chips, with
// and without the event engine, every per-image and batch perf.Result and
// Report of the sliced whole-chip run is bit-identical to the per-range
// executor's, and the merged chip's stage grid sliced by range is each
// oracle shard's own grid.
func TestMatchesRangeOracle(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			chip := chipFor(t, b)
			inputs := benchInputs(t, b, chip.Net, 2)
			enc := factoryFor(7)
			for _, n := range []int{1, 2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				o, err := newOracle(multi)
				if err != nil {
					t.Fatal(err)
				}
				for _, evt := range []bool{false, true} {
					opt := sim.Options{EventEngine: evt}
					ress, sreps, err := multi.ClassifyEach(inputs, enc, opt)
					if err != nil {
						t.Fatal(err)
					}
					wantRess := make([]perf.Result, len(inputs))
					wantReps := make([]sim.Report, len(inputs))
					for i := range inputs {
						var parts []core.Report
						wantRess[i], wantReps[i], parts = o.classifyOne(inputs[i], enc(i), opt)
						if !reflect.DeepEqual(ress[i], wantRess[i]) {
							t.Fatalf("x%d event %v image %d: result\ngot:  %+v\nwant: %+v", n, evt, i, ress[i], wantRess[i])
						}
						if sreps[i].Predicted != wantReps[i].Predicted || sreps[i].Steps != wantReps[i].Steps {
							t.Fatalf("x%d event %v image %d: report %+v, oracle %+v", n, evt, i, sreps[i], wantReps[i])
						}
						got := sreps[i].Detail.(Report)
						for s, r := range got.Ranges {
							if !reflect.DeepEqual(columns(got.Chip.Stages, r), parts[s].Stages) {
								t.Fatalf("x%d event %v image %d: shard %d's stage columns differ from its own grid", n, evt, i, s)
							}
						}
						// The oracle's merged chip carries no stage grid.
						got.Chip.Stages = nil
						if want := wantReps[i].Detail.(Report); !reflect.DeepEqual(got, want) {
							t.Fatalf("x%d event %v image %d: shard report\ngot:  %+v\nwant: %+v", n, evt, i, got, want)
						}
					}
					res, srep, err := multi.ClassifyBatch(inputs, enc, opt)
					if err != nil {
						t.Fatal(err)
					}
					wantRes, wantRep := o.reduce(wantRess, wantReps)
					if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(srep, wantRep) {
						t.Fatalf("x%d event %v: batch\ngot:  %+v %+v\nwant: %+v %+v", n, evt, res, srep, wantRes, wantRep)
					}
				}
			}
		})
	}
}
