// Package core implements RESPARC itself — the paper's primary
// contribution: the reconfigurable core that pools NeuroCells on a global IO
// bus with an SRAM input memory and a global control unit (§3.1.3, Fig 3),
// and its transaction-level performance/energy simulator.
//
// The simulator composes RTL-calibrated per-event energies (internal/energy)
// over event counts extracted from the functional SNN simulation — exactly
// the paper's methodology (§4.2). It scales to the largest Fig 10 benchmark
// (231k neurons, 5.5M synapses) because it never materializes crossbar
// weights: it walks the mapping's MCA input lists against the spike vectors
// of each timestep.
//
// Its event counts (and cycle counts) are validated against the cycle-level
// NeuroCell simulator (internal/neurocell) on small networks.
//
// Chip implements sim.Backend; all batch entry points route through the
// shared fan-out in internal/sim. Accounting is kept per layer (LayerCycles,
// LayerEnergies, the Stages grid) and totals are reduced in ascending layer
// order. The multi-chip backend (internal/shard) is a model over the chip's
// own run: it classifies on the chip and cuts each report's Stages grid by
// layer range (cost.Shards), each stage carrying the nonzero words a hop
// into its layer would carry.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/energy"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/trace"
)

// Options configure one simulation.
type Options struct {
	Params energy.Params
	// EventDriven enables the zero-check gating of §3.2 (Fig 13's "w/"
	// configuration). When false, every packet and bus word transfers and
	// every mapped MCA is activated and integrated each timestep.
	EventDriven bool
	// PacketWidth is the spike-packet width in bits (64 in Fig 8; Fig 13's
	// run-length discussion motivates sweeping it).
	PacketWidth int
	// Steps is the number of SNN timesteps per classification.
	Steps int
	// Trace, when non-nil, receives one event per (timestep, layer) — see
	// internal/trace. Classification results are unaffected.
	Trace *trace.Writer
	// BlockSize overrides the temporal block length of the blocked runner
	// (<= 0 selects snn.DefaultBlockSize; see snn.State.RunBlockedK). Any
	// value is bit-identical — predictions, spike rasters and therefore every
	// event counter match — so this is purely a performance knob.
	BlockSize int
}

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{Params: energy.Default45nm(), EventDriven: true, PacketWidth: 64, Steps: 64}
}

// Counters are the raw event counts of one classification.
type Counters struct {
	Cycles             int
	BusWords           int
	BusWordsSuppressed int
	PacketsDelivered   int
	PacketsSuppressed  int
	MCAActivations     int
	RowsDriven         int
	Integrations       int
	Spikes             int
	ExtTransfers       int
}

// CycleBreakdown splits the cycle count by pipeline phase — the latency
// "roofline" showing whether a benchmark is bound by global control, the
// shared bus, switch delivery, time-multiplexed integration or spike
// drain.
type CycleBreakdown struct {
	Sync, Bus, Delivery, Integrate, Drain int
}

// add accumulates one stage's phases.
func (c *CycleBreakdown) add(ph cost.Phases) {
	c.Sync += ph.Sync
	c.Bus += ph.Bus
	c.Delivery += ph.Delivery
	c.Integrate += ph.Integrate
	c.Drain += ph.Drain
}

// Total sums the phases.
func (c CycleBreakdown) Total() int {
	return c.Sync + c.Bus + c.Delivery + c.Integrate + c.Drain
}

// Bottleneck names the dominant phase.
func (c CycleBreakdown) Bottleneck() string {
	names := []string{"sync", "bus", "delivery", "integrate", "drain"}
	vals := []int{c.Sync, c.Bus, c.Delivery, c.Integrate, c.Drain}
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return names[best]
}

// Report is the full outcome of one classification on RESPARC.
type Report struct {
	Energy    perf.RESPARCEnergy
	Latency   float64 // seconds
	Counts    Counters
	Predicted int
	// LayerCycles accumulates cycles per layer stage over the run — the
	// basis of the pipelined-throughput analysis (Fig 7a: layers inside
	// NeuroCells process different timesteps concurrently).
	LayerCycles []int
	// LayerEnergies is the per-layer energy breakdown; Energy is its
	// layer-order sum (perf.SumRESPARC).
	LayerEnergies []perf.RESPARCEnergy
	// BusCycles is the portion of Cycles spent on the shared global bus;
	// bus phases of different stages cannot overlap.
	BusCycles int
	// Breakdown splits the serial-sum cycles by pipeline phase; its Total is
	// Counts.Cycles unless Pipeline replaced Cycles with the smaller
	// pipelined makespan — the difference is the overlap the pipeline wins.
	Breakdown CycleBreakdown
	// LayerSpikes counts output spikes per layer over the run — the
	// sparsity record behind perf.Result's occupancy stats.
	LayerSpikes []int
	// Stages holds the per-(timestep, layer) stage durations the accountant
	// recorded, indexed [step][layer], each with the nonzero 64-bit words of
	// the layer's input (cost.Stage.Words): the grid both latency reductions
	// read. Counts.Cycles is its serial sum; Pipeline reduces it to the
	// pipelined makespan, and the multi-chip model (cost.Shards) cuts it
	// into one column slice per chip and prices each cut's raster off it.
	Stages [][]cost.Stage
	// BusWait is the total cycles stages spent queued for the shared global
	// bus in the pipelined reduction (zero unless Pipeline ran: the serial
	// sum never overlaps two bus phases).
	BusWait int64
	// TraceError records the first trace-write failure, if tracing was
	// enabled (the simulation itself is unaffected).
	TraceError error
}

// Pipeline applies the second reduction of the stage grid: Counts.Cycles and
// Latency become the Fig 7(a) pipelined makespan of Stages (see
// cost.Pipeline) instead of its serial sum, and BusWait records the cycles
// stages queued for the shared bus. Energies, the other counters, Breakdown
// and the per-layer slices are unchanged.
func (r *Report) Pipeline(cycleSeconds float64) {
	var p cost.Pipeline
	makespan, _, busWait := p.Makespan([][][]cost.Stage{r.Stages}, nil, 0)
	r.Counts.Cycles, r.BusWait = int(makespan), busWait
	r.Latency = float64(r.Counts.Cycles) * cycleSeconds
}

// PipelineInterval returns the steady-state initiation interval (cycles per
// timestep) when layer stages are pipelined as in Fig 7(a): bounded below
// by the slowest stage and by the serialization of the shared bus.
func (r Report) PipelineInterval(steps int) int {
	if steps <= 0 {
		return 0
	}
	max := r.BusCycles
	for _, c := range r.LayerCycles {
		if c > max {
			max = c
		}
	}
	return (max + steps - 1) / steps
}

// PipelinedThroughput returns classifications per second in pipelined
// steady state, given the NeuroCell cycle time.
func (r Report) PipelinedThroughput(steps int, cycleSeconds float64) float64 {
	ii := r.PipelineInterval(steps)
	if ii == 0 {
		return 0
	}
	return 1 / (float64(ii*steps) * cycleSeconds)
}

// Chip is a mapped network ready for simulation.
type Chip struct {
	Net *snn.Network
	Map *mapping.Mapping
	Opt Options

	sram energy.SRAM
	// faults holds the installed fault campaign (see faults.go); atomic so
	// the serving layer can inject/clear while classifications are running.
	faults atomic.Pointer[faultState]
	// plans caches the accountant's layer plans (see event.go), built on
	// first use and dropped by Remapped; fault campaigns never mutate the
	// mapping.
	plansMu sync.Mutex
	plans   []layerPlan
	// sessions recycles worker sessions across classification calls.
	sessions sync.Pool
}

// New validates and prepares a chip for the mapped network.
func New(net *snn.Network, m *mapping.Mapping, opt Options) (*Chip, error) {
	if m.Net != net {
		return nil, fmt.Errorf("core: mapping belongs to a different network")
	}
	if opt.PacketWidth < 1 || opt.PacketWidth > 64 {
		return nil, fmt.Errorf("core: packet width %d out of [1,64]", opt.PacketWidth)
	}
	if opt.Steps < 1 {
		return nil, fmt.Errorf("core: steps %d", opt.Steps)
	}
	return &Chip{Net: net, Map: m, Opt: opt, sram: mapping.InputSRAM(net)}, nil
}

var _ sim.Backend = (*Chip)(nil)

// Name implements sim.Backend.
func (c *Chip) Name() string { return "resparc" }

// Network implements sim.Backend.
func (c *Chip) Network() *snn.Network { return c.Net }

// observer tallies the events of every layer during a run and prices them
// when it reports.
type observer struct {
	chip        *Chip
	plans       []layerPlan
	tally       []cost.Tally // per layer
	cycles      int          // serial sum of every stage
	layerCycles []int
	busCycles   int
	breakdown   CycleBreakdown
	scratch     mapping.GatherScratch
	prev, delta cost.Tally // a layer's tally before the traced visit, and the visit's
	traceErr    error
	stages      [][]cost.Stage
	nsteps      int
}

func newObserver(c *Chip) *observer {
	n := len(c.Net.Layers)
	o := &observer{
		chip:        c,
		tally:       make([]cost.Tally, n),
		layerCycles: make([]int, n),
	}
	o.reset()
	return o
}

// reset clears the accumulated accounting, keeping the scratch allocations,
// so one observer can be reused across a stream of classifications. It
// picks up the chip's current layer plans (see Remapped).
func (o *observer) reset() {
	o.plans = o.chip.layerPlans()
	for j := range o.tally {
		o.tally[j].Reset(len(o.plans[j].g.Factors))
	}
	o.cycles = 0
	clear(o.layerCycles)
	o.busCycles = 0
	o.breakdown = CycleBreakdown{}
	o.traceErr = nil
	o.nsteps = 0
}

// layerEnergy prices layer j's tally.
func (o *observer) layerEnergy(j int, t *cost.Tally) perf.RESPARCEnergy {
	c := o.chip
	return cost.Energy(c.Opt.Params, c.sram.AccessEnergy(), j == 0, o.plans[j].g.Factors, t)
}

// writeTrace emits one per-(step, layer) trace event from the difference
// of the layer's tally and its snapshot before the visit.
func (o *observer) writeTrace(step, j int, cur, out *bitvec.Bits) {
	c := o.chip
	d := &o.delta
	d.CopyFrom(&o.tally[j])
	d.Sub(&o.prev)
	err := c.Opt.Trace.Write(trace.Event{
		Step: step, Layer: j, Name: c.Map.Layers[j].Layer.Name,
		InputSpikes:  cur.Count(),
		OutputSpikes: out.Count(),
		Packets:      d.Delivered,
		Suppressed:   d.Checked - d.Delivered,
		BusWords:     d.BusSent,
		Activations:  d.Active,
		RowsDriven:   d.RowsDriven(),
		EnergyJ:      o.layerEnergy(j, d).Total(),
	})
	if err != nil && o.traceErr == nil {
		o.traceErr = err
	}
}

// report prices the tallies and reduces the accumulated accounting to a
// result/report pair, with Cycles/Latency the serial sum of the recorded
// stage grid — or, when pipelined is set, its pipelined makespan
// (Report.Pipeline). The per-layer slices and the stage grid are copies:
// observers are reused across classifications (reset), so reports must
// not alias their buffers.
func (o *observer) report(predicted, steps int, pipelined bool) (perf.Result, Report) {
	ncc := o.chip.Opt.Params.NCCycle()
	n := len(o.tally)
	grid := make([]cost.Stage, o.nsteps*n)
	stages := make([][]cost.Stage, o.nsteps)
	for t := range stages {
		stages[t] = grid[t*n : (t+1)*n : (t+1)*n]
		copy(stages[t], o.stages[t])
	}
	cnt := Counters{Cycles: o.cycles}
	layerE := make([]perf.RESPARCEnergy, n)
	layerSpikes := make([]int, n)
	for j := range o.tally {
		t := &o.tally[j]
		cnt.BusWords += t.BusSent
		cnt.BusWordsSuppressed += t.BusChecked - t.BusSent
		cnt.PacketsDelivered += t.Delivered
		cnt.PacketsSuppressed += t.Checked - t.Delivered
		cnt.MCAActivations += t.Active
		cnt.RowsDriven += t.RowsDriven()
		cnt.Integrations += t.Integrations
		cnt.Spikes += t.Spikes
		cnt.ExtTransfers += t.Ext
		layerE[j] = o.layerEnergy(j, t)
		layerSpikes[j] = t.Spikes
	}
	rep := Report{
		Energy: perf.SumRESPARC(layerE), Latency: float64(o.cycles) * ncc,
		Counts: cnt, Predicted: predicted,
		LayerCycles:   append([]int(nil), o.layerCycles...),
		LayerEnergies: layerE,
		LayerSpikes:   layerSpikes,
		Stages:        stages,
		BusCycles:     o.busCycles, Breakdown: o.breakdown, TraceError: o.traceErr,
	}
	if pipelined {
		rep.Pipeline(ncc)
	}
	res := perf.Result{
		Arch:    "resparc",
		Network: o.chip.Net.Name,
		Energy:  rep.Energy.Total(),
		Latency: rep.Latency,
		Steps:   steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = sparsity(o.chip.Net.Layers, layerSpikes, 1, steps)
	return res, rep
}

// Accountant is the chip's observer as a reusable value: it charges the
// chip's event/energy accounting of every layer over the steps it observes
// (snn.Observer), and its Report is what Classify reports for the same run.
type Accountant struct {
	obs *observer
}

// NewAccountant returns an accountant for layers [lo, hi), which must be
// the whole network [0, len(Net.Layers)): the accountant charges every
// layer, and the multi-chip model reads each chip's share off that one
// report (cost.Shards).
func (c *Chip) NewAccountant(lo, hi int) (*Accountant, error) {
	if lo != 0 || hi != len(c.Net.Layers) {
		return nil, fmt.Errorf("core: accountant range [%d,%d) is not the whole network of %d layers", lo, hi, len(c.Net.Layers))
	}
	return &Accountant{obs: newObserver(c)}, nil
}

// ObserveStep implements snn.Observer.
func (a *Accountant) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	a.obs.ObserveStep(step, input, layers)
}

// Reset clears the accounting for the next classification (scratch buffers
// are retained).
func (a *Accountant) Reset() { a.obs.reset() }

// Report reduces the accounting with the serial-sum latency
// (Report.Pipeline applies the pipelined reduction).
// The per-layer slices and the stage grid are copies: the accountant is
// reused across classifications (Reset), so reports must not alias its
// buffers.
func (a *Accountant) Report(predicted, steps int) (perf.Result, Report) {
	return a.obs.report(predicted, steps, false)
}

// session is one worker's reusable simulation state: a group of
// Net.GroupSize() functional States, each with its whole-chip accountant,
// that run a chunk of images in lockstep (sim.Run). Sessions are pooled
// across calls, so a stream of small batches does not rebuild them.
type session struct {
	ms   []snn.Member // member i runs on its own State with obs[i]
	obs  []*observer
	runs []snn.RunResult
	reps []Report
}

func (c *Chip) getSession() *session {
	if s, ok := c.sessions.Get().(*session); ok {
		return s
	}
	g := c.Net.GroupSize()
	s := &session{
		ms: make([]snn.Member, g), obs: make([]*observer, g),
		runs: make([]snn.RunResult, g), reps: make([]Report, g),
	}
	for i := range s.ms {
		s.obs[i] = newObserver(c)
		s.ms[i] = snn.Member{State: snn.NewState(c.Net), Obs: s.obs[i]}
	}
	return s
}

// classifyGroup classifies a chunk of at most the session's group size on
// a worker's session under the given per-call options: image i's result
// goes to ress[i] and s.reps[i], its executed steps to s.runs[i].Steps.
func (c *Chip) classifyGroup(s *session, inputs []tensor.Vec, encs []snn.Encoder, opt sim.Options, ress []perf.Result) {
	ms := s.ms[:len(inputs)]
	for i := range ms {
		ms[i].Input, ms[i].Enc = inputs[i], encs[i]
		s.obs[i].reset()
	}
	sim.Run(ms, c.Opt.Steps, c.Opt.BlockSize, opt, s.runs)
	for i := range ms {
		ress[i], s.reps[i] = s.obs[i].report(s.runs[i].Prediction, s.runs[i].Steps, opt.EventEngine)
		// A pooled session must not keep the caller's inputs alive.
		ms[i].Input, ms[i].Enc = nil, nil
	}
}

// classify runs one classification — a group of one — on a session taken
// from the pool.
func (c *Chip) classify(intensity tensor.Vec, enc snn.Encoder, opt sim.Options) (perf.Result, Report, int) {
	s := c.getSession()
	defer c.sessions.Put(s)
	var res [1]perf.Result
	c.classifyGroup(s, []tensor.Vec{intensity}, []snn.Encoder{enc}, opt, res[:])
	return res[0], s.reps[0], s.runs[0].Steps
}

// Classify implements sim.Backend: one classification with the chip's
// configured runner and step budget.
func (c *Chip) Classify(intensity tensor.Vec, enc snn.Encoder) (perf.Result, sim.Report) {
	res, rep, steps := c.classify(intensity, enc, sim.Options{})
	return res, sim.Report{Predicted: rep.Predicted, Steps: steps, Detail: rep}
}

// ClassifyDetailed is Classify returning the chip's own Report (event
// counters, cycle breakdown, per-layer accounting) instead of the
// backend-neutral sim.Report.
func (c *Chip) ClassifyDetailed(intensity tensor.Vec, enc snn.Encoder) (perf.Result, Report) {
	res, rep, _ := c.classify(intensity, enc, sim.Options{})
	return res, rep
}

// ClassifyEach implements sim.Backend: per-image classification across the
// shared worker pool (internal/parallel) via the one fan-out in sim.Each.
// Each worker owns one session and runs its images in groups of
// Net.GroupSize(), each sample gets its own encoder, and image i's outcome
// depends only on (input[i], enc(i)), so results are bit-identical for any
// worker count. Tracing is not supported (the trace writer is not
// concurrency-safe).
func (c *Chip) ClassifyEach(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) ([]perf.Result, []sim.Report, error) {
	if c.Opt.Trace != nil {
		return nil, nil, fmt.Errorf("core: tracing is not supported with batched classification")
	}
	if err := c.Healthy(); err != nil {
		return nil, nil, err
	}
	var held []*session
	defer func() {
		for _, s := range held {
			c.sessions.Put(s)
		}
	}()
	return sim.Each(inputs, enc, opt, c.Net.GroupSize(), func() sim.Session {
		s := c.getSession()
		held = append(held, s)
		return func(in []tensor.Vec, encs []snn.Encoder, ress []perf.Result, reps []sim.Report) {
			c.classifyGroup(s, in, encs, opt, ress)
			for i, rep := range s.reps[:len(in)] {
				reps[i] = sim.Report{Predicted: rep.Predicted, Steps: s.runs[i].Steps, Detail: rep}
			}
		}
	})
}

// ClassifyBatch implements sim.Backend: it classifies every input and
// reduces the per-image reports to the chip's batch aggregate — energies
// and latency averaged per classification, event counters and cycle
// breakdowns summed, Predicted == -1 (an aggregate has no single
// prediction). The outcome is bit-identical for any worker count.
func (c *Chip) ClassifyBatch(inputs []tensor.Vec, enc sim.EncoderFactory, opt sim.Options) (perf.Result, sim.Report, error) {
	_, sreps, err := c.ClassifyEach(inputs, enc, opt)
	if err != nil {
		return perf.Result{}, sim.Report{}, err
	}
	reps := make([]Report, len(sreps))
	for i, r := range sreps {
		reps[i] = r.Detail.(Report)
	}
	res, avg := c.Reduce(reps)
	return res, sim.Report{Predicted: -1, Steps: c.Opt.Steps, Detail: avg}, nil
}

// Reduce aggregates per-image reports of this chip into the batch shape:
// energies and latency averaged per classification, event counters and
// cycle breakdowns summed over the batch, Predicted == -1. The result's
// sparsity stats are per-image averages. Float sums run in the order of
// reps, so callers pass them in input order.
func (c *Chip) Reduce(reps []Report) (perf.Result, Report) {
	var total Report
	for _, rep := range reps {
		total.Latency += rep.Latency
		total.Counts = addCounters(total.Counts, rep.Counts)
		total.BusCycles += rep.BusCycles
		total.BusWait += rep.BusWait
		total.Breakdown = addBreakdown(total.Breakdown, rep.Breakdown)
		if total.LayerCycles == nil {
			total.LayerCycles = make([]int, len(rep.LayerCycles))
			total.LayerEnergies = make([]perf.RESPARCEnergy, len(rep.LayerEnergies))
			total.LayerSpikes = make([]int, len(rep.LayerSpikes))
		}
		for li, cyc := range rep.LayerCycles {
			total.LayerCycles[li] += cyc
		}
		for li, sp := range rep.LayerSpikes {
			total.LayerSpikes[li] += sp
		}
		for li, le := range rep.LayerEnergies {
			total.LayerEnergies[li].Neuron += le.Neuron
			total.LayerEnergies[li].Crossbar += le.Crossbar
			total.LayerEnergies[li].Peripherals += le.Peripherals
		}
	}
	n := float64(len(reps))
	for li := range total.LayerEnergies {
		total.LayerEnergies[li].Neuron /= n
		total.LayerEnergies[li].Crossbar /= n
		total.LayerEnergies[li].Peripherals /= n
	}
	avg := Report{
		Energy:        perf.SumRESPARC(total.LayerEnergies),
		Latency:       total.Latency / n,
		Counts:        total.Counts,
		BusCycles:     total.BusCycles,
		BusWait:       total.BusWait,
		Breakdown:     total.Breakdown,
		LayerCycles:   total.LayerCycles,
		LayerEnergies: total.LayerEnergies,
		LayerSpikes:   total.LayerSpikes,
		Predicted:     -1,
	}
	res := perf.Result{
		Arch:    "resparc",
		Network: c.Net.Name,
		Energy:  avg.Energy.Total(),
		Latency: avg.Latency,
		Steps:   c.Opt.Steps,
	}
	res.SpikesPerStep, res.LayerOccupancy = sparsity(c.Net.Layers, total.LayerSpikes, len(reps), c.Opt.Steps)
	return res, avg
}

// sparsity reduces per-layer output spike counts, summed over images
// classifications of steps timesteps each, to the perf.Result stats: average
// output spikes per timestep per image, and each layer's occupancy (fraction
// of its neurons spiking per timestep). layerSpikes[j] counts layers[j]. One
// image multiplies by exactly 1.0, so a single classification's stats are
// those of its own counts.
func sparsity(layers []*snn.Layer, layerSpikes []int, images, steps int) (float64, []float64) {
	if images <= 0 || steps <= 0 {
		return 0, nil
	}
	total := 0
	occ := make([]float64, len(layerSpikes))
	for j, sp := range layerSpikes {
		total += sp
		if n := layers[j].OutSize(); n > 0 {
			occ[j] = float64(sp) / (float64(images) * float64(steps) * float64(n))
		}
	}
	return float64(total) / (float64(images) * float64(steps)), occ
}

func addBreakdown(a, b CycleBreakdown) CycleBreakdown {
	a.Sync += b.Sync
	a.Bus += b.Bus
	a.Delivery += b.Delivery
	a.Integrate += b.Integrate
	a.Drain += b.Drain
	return a
}

func addCounters(a, b Counters) Counters {
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
