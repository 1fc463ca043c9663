package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/cmosbase"
	"resparc/internal/core"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/shard"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// Fixed simulation settings: the paper's evaluation configuration and the
// defaults users get.
const (
	steps      = 48 // timesteps per classification
	maxProb    = 0.8
	weightSeed = 1 // Fig 10 network weights
	planSeed   = 1 // resparc-map plan's default annealer seed
	shards     = 4
	setupReps  = 3 // setup is repeated and its median reported
	// sloLoadFactor: in a sweep, a high-load request meets its objective when
	// it finishes within this multiple of its network's low-load median.
	sloLoadFactor = 2
)

// family is one sweep workload's network set.
type family struct {
	nets []string
	// images per network per round: enough that the modeled means are
	// steady across seeds, few enough that a run has ten rounds or more.
	images int
}

var (
	mlpFamily = family{nets: []string{"mnist-mlp", "svhn-mlp", "cifar-mlp"}, images: 16}
	cnnFamily = family{nets: []string{"mnist-cnn", "svhn-cnn", "cifar-cnn"}, images: 2}
)

// callKinds are the timed calls on one network in a round: resparc with one
// image in flight (Workers = 1), then the three backends at Workers = nproc.
// Each names its span and per-layer metric.
var callKinds = []struct {
	span    string
	backend int // index into sweepNet.backends
	serial  bool
}{
	{"core.classify_serial", 0, true},
	{"core.classify", 0, false},
	{"cmos.classify", 1, false},
	{"shard.classify", 2, false},
}

// sweepNet is one network prepared on the three backends, with its inputs.
type sweepNet struct {
	name     string
	net      *snn.Network
	chip     *core.Chip
	backends []sim.Backend // resparc, cmos, annealed resparc-x4
	inputs   []tensor.Vec
	enc      sim.EncoderFactory
}

// setupTimes are one setup's per-layer costs, summed over the networks.
type setupTimes struct{ total, build, mapping, plan, backends time.Duration }

// setupSweep builds, maps, plans and prepares every network of the family:
// the uniform MCA-64 mapping for resparc, the CMOS baseline, and a 4-shard
// annealed placement realized through Placement.Apply for resparc-x4 (the
// resparc-map plan -> -placement path).
func setupSweep(f family, tr *tracer, parent int64) ([]*sweepNet, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	timed := func(name string, acc *time.Duration, fn func() error) error {
		id := tr.begin(name, parent, 0)
		t0 := time.Now()
		err := fn()
		*acc += time.Since(t0)
		tr.end(id)
		return err
	}
	copt := core.DefaultOptions()
	copt.Steps = steps
	bopt := cmosbase.DefaultOptions()
	bopt.Steps = steps
	out := make([]*sweepNet, 0, len(f.nets))
	for _, name := range f.nets {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, st, err
		}
		var net *snn.Network
		if err := timed("bench.build", &st.build, func() (err error) {
			net, err = b.Build(weightSeed)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("building %s: %w", name, err)
		}
		var m *mapping.Mapping
		if err := timed("mapping.map", &st.mapping, func() (err error) {
			m, err = mapping.Map(net, mapping.DefaultConfig())
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("mapping %s: %w", name, err)
		}
		var pl *mapping.Placement
		if err := timed("mapping.plan", &st.plan, func() (err error) {
			cons := mapping.DefaultConstraints(mapping.DefaultConfig())
			cons.Shards = shards
			pl, err = mapping.Annealed{Seed: planSeed}.Plan(net, cons)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("planning %s: %w", name, err)
		}
		var m4 *mapping.Mapping
		if err := timed("mapping.map", &st.mapping, func() (err error) {
			m4, err = pl.Apply(net)
			return err
		}); err != nil {
			return nil, st, fmt.Errorf("applying the %s placement: %w", name, err)
		}
		sn := &sweepNet{name: name, net: net}
		if err := timed("backend.new", &st.backends, func() error {
			chip, err := core.New(net, m, copt)
			if err != nil {
				return err
			}
			base, err := cmosbase.New(net, bopt)
			if err != nil {
				return err
			}
			chip4, err := core.New(net, m4, copt)
			if err != nil {
				return err
			}
			x4, err := shard.New(chip4, shard.Config{Cuts: pl.ShardCuts})
			if err != nil {
				return err
			}
			sn.chip = chip
			sn.backends = []sim.Backend{chip, base, x4}
			return nil
		}); err != nil {
			return nil, st, fmt.Errorf("preparing backends for %s: %w", name, err)
		}
		out = append(out, sn)
	}
	st.total = time.Since(start)
	return out, st, nil
}

// sweepInputs draws the network's images and encoder forks from the seed.
func sweepInputs(sn *sweepNet, idx int, images int, seed int64) error {
	b, err := bench.ByName(sn.name)
	if err != nil {
		return err
	}
	set := dataset.Generate(b.Dataset, images, seed*1_000_003+int64(idx)*7919+101)
	sn.inputs = make([]tensor.Vec, len(set.Samples))
	for i, s := range set.Samples {
		in, err := bench.PrepareInput(s.Input, set.Shape, sn.net.Input)
		if err != nil {
			return err
		}
		sn.inputs[i] = bench.NormalizeIntensity(in)
	}
	enc := snn.NewPoissonEncoder(maxProb, seed<<20+int64(idx)<<12)
	sn.enc = func(i int) snn.Encoder { return enc.ForkSeed(i) }
	return nil
}

// netResults are one network's round-0 outcomes on the three backends.
type netResults struct {
	res   [3][]perf.Result
	reps  [3][]sim.Report
	preds []int // resparc predictions: the reference every later call must match
}

func runSweep(cfg config, f family) (*outcome, error) {
	o := newOutcome()
	nproc := runtime.NumCPU()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	images := f.images
	reps := setupReps
	if cfg.Tiny {
		images, reps = 1, 1
	}

	// Setup, repeated; the last one is used.
	var nets []*sweepNet
	var totals, builds, maps, plans, news []float64
	for r := 0; r < reps; r++ {
		nets = nil // let the collector reclaim the previous setup first
		runtime.GC()
		id := tr.begin("sweep.setup", 0, 0)
		var st setupTimes
		var err error
		nets, st, err = setupSweep(f, tr, id)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		totals = append(totals, st.total.Seconds())
		builds = append(builds, ms(st.build))
		maps = append(maps, ms(st.mapping))
		plans = append(plans, ms(st.plan))
		news = append(news, ms(st.backends))
	}
	o.e2e["setup_s"] = median(totals)
	o.layer["bench.build_ms"] = median(builds)
	o.layer["mapping.map_ms"] = median(maps)
	o.layer["mapping.plan_ms"] = median(plans)
	o.layer["backend.new_ms"] = median(news)
	o.notes["setup_s_samples"] = totals

	for i, sn := range nets {
		if err := sweepInputs(sn, i, images, cfg.Seed); err != nil {
			return nil, err
		}
	}
	// Warm-up: lazily built weight panels and first-use allocations are paid
	// here, not in the timed phase.
	for _, sn := range nets {
		for _, be := range sn.backends {
			if _, _, err := be.ClassifyEach(sn.inputs[:1], sn.enc, sim.Options{Workers: 1}); err != nil {
				return nil, fmt.Errorf("warm-up %s on %s: %w", sn.name, be.Name(), err)
			}
		}
	}
	runtime.GC()

	results, err := sweepTimed(cfg, nets, nproc, true, tr, o, "sweep.timed")
	if err != nil {
		return nil, err
	}
	modeledSweep(nets, results, o)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	if cfg.Trace {
		o.spans = tr.snapshot()
	}
	return o, nil
}

// sweepTimed is the timed phase: rounds of the callKinds over every network
// (without the serial call unless latency is set) until cfg.Seconds have
// passed (at least one round). Every call is preceded
// by a reference timing on as many goroutines as it has workers, and its
// per-image time is taken at nominal host speed; each (network, call) then
// counts at its median over the rounds.
// sim_img_per_s is the throughput of one pass of the three Workers = nproc
// calls; with latency set, the resparc calls also give the latency metrics
// (sweepLatency). In the traced run, round 0 also times the per-layer
// decomposition. The phase's root span is named phase.
func sweepTimed(cfg config, nets []*sweepNet, nproc int, latency bool, tr *tracer, o *outcome, phase string) ([]*netResults, error) {
	results := make([]*netResults, len(nets))
	for i := range results {
		results[i] = &netResults{}
	}
	kinds := callKinds
	if !latency {
		kinds = callKinds[1:]
	}
	// norm[network][call kind]: per-round ms per image at nominal speed.
	norm := make([][][]float64, len(nets))
	for i := range norm {
		norm[i] = make([][]float64, len(kinds))
	}
	callMs := make(map[string][]float64) // span name -> per-round raw ms per image
	callTotal := make(map[string]time.Duration)
	callImgs := make(map[string]int)
	var refs []float64
	var lt layerTimes
	rounds := 0
	root := tr.begin(phase, 0, 0)
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		perCall := make(map[string]time.Duration)
		perImgs := make(map[string]int)
		for ni, sn := range nets {
			nr := results[ni]
			n := len(sn.inputs)
			preds := make([][]int, len(kinds))
			for ki, kind := range kinds {
				be := sn.backends[kind.backend]
				workers := nproc
				if kind.serial {
					workers = 1
				}
				rid := tr.begin("host.ref", root, 0)
				ref := refMs(workers)
				tr.end(rid)
				refs = append(refs, ref)
				id := tr.begin(kind.span, root, 0)
				t0 := time.Now()
				ress, sreps, err := be.ClassifyEach(sn.inputs, sn.enc, sim.Options{Workers: workers})
				d := time.Since(t0)
				tr.end(id)
				norm[ni][ki] = append(norm[ni][ki], ms(d)/float64(n)*hostScale(ref))
				perCall[kind.span] += d
				perImgs[kind.span] += n
				o.attempted += n
				if err != nil {
					o.failed += n
					o.notes[fmt.Sprintf("error_%s_%s", sn.name, kind.span)] = err.Error()
					continue
				}
				preds[ki] = predictions(sreps)
				if round == 0 && !kind.serial {
					nr.res[kind.backend], nr.reps[kind.backend] = ress, sreps
				}
			}
			if round == 0 {
				nr.preds = preds[0]
			}
			// Every call must agree with the round-0 prediction of the first
			// resparc call on the same (image, seed).
			for _, ps := range preds {
				if ps == nil {
					continue
				}
				for i, p := range ps {
					if nr.preds == nil || p != nr.preds[i] {
						o.failed++
					}
				}
			}
			if round == 0 && tr != nil {
				if err := decompose(sn, nr, tr, root, &lt, o); err != nil {
					return nil, err
				}
			}
		}
		rounds++
		for name, d := range perCall {
			callMs[name] = append(callMs[name], ms(d)/float64(perImgs[name]))
			callTotal[name] += d
			callImgs[name] += perImgs[name]
		}
		last := time.Since(roundStart)
		elapsed := time.Since(start)
		if cfg.Tiny || elapsed+last/2 >= secondsDur(cfg.Seconds) {
			break
		}
	}
	tr.end(root)

	var passImgs, passMs float64
	for ni, sn := range nets {
		for ki, kind := range kinds {
			if !kind.serial {
				n := float64(len(sn.inputs))
				passImgs += n
				passMs += n * median(norm[ni][ki])
			}
		}
	}
	if passMs > 0 {
		o.e2e["sim_img_per_s"] = 1000 * passImgs / passMs
	}
	if latency {
		sweepLatency(nets, norm, nproc, o)
	}
	o.layer["host.ref_ms"] = median(refs)
	o.notes["timed_rounds"] = rounds
	o.notes["round_ms_per_img"] = callMs
	for _, kind := range kinds {
		if callImgs[kind.span] > 0 {
			o.layer[kind.span+"_ms_per_img"] = ms(callTotal[kind.span]) / float64(callImgs[kind.span])
		}
	}
	if par := o.layer["core.classify_ms_per_img"]; latency && par > 0 {
		o.layer["sim.parallel_eff"] = o.layer["core.classify_serial_ms_per_img"] / (float64(nproc) * par)
	}
	if tr != nil && lt.images > 0 {
		perImg := func(d time.Duration) float64 { return ms(d) / float64(lt.images) }
		o.layer["snn.run_ms_per_img"] = perImg(lt.run)
		o.layer["core.account_ms_per_img"] = perImg(lt.account)
		c := checkSum(tr.snapshot(), root)
		o.layer["trace.sum_err"] = math.Abs(c.Err)
		o.notes["sum_check"] = c
		if !c.OK {
			o.valid = false
			o.notes["invalid"] = fmt.Sprintf("sum check failed: layer self times %.1f ms vs wall %.1f ms (tolerance %.0f%%)",
				c.LayersMs, c.WallMs, 100*c.Tolerance)
		}
	}
	return results, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func predictions(reps []sim.Report) []int {
	out := make([]int, len(reps))
	for i, r := range reps {
		out[i] = r.Predicted
	}
	return out
}

// layerTimes accumulates the decomposition's serial timings.
type layerTimes struct {
	run, account time.Duration
	images       int
}

// decompose times one network's resparc classification split into its
// layers, serially: the functional simulator alone (snn.RunBatch) and the
// chip accountant alone (an observer timing each ObserveStep while
// RunBlockedK drives it). The accountant's reports must reproduce the chip's
// energies bit for bit.
func decompose(sn *sweepNet, nr *netResults, tr *tracer, root int64, lt *layerTimes, o *outcome) error {
	n := len(sn.inputs)
	lt.images += n

	id := tr.begin("snn.run", root, 0)
	t0 := time.Now()
	runs, err := snn.RunBatch(sn.net, sn.inputs, snn.EncoderFactory(sn.enc), steps, snn.Options{Workers: 1})
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("snn.RunBatch %s: %w", sn.name, err)
	}
	lt.run += d
	runPreds := make([]int, len(runs))
	for i, r := range runs {
		runPreds[i] = r.Prediction
	}
	o.attempted += n
	o.failed += mismatches(runPreds, nr.preds)

	acct, err := sn.chip.NewAccountant(0, len(sn.net.Layers))
	if err != nil {
		return err
	}
	st := snn.NewState(sn.net)
	obs := &timingObserver{inner: acct}
	var accounted time.Duration
	id = tr.begin("core.observed_run", root, 0)
	for i, in := range sn.inputs {
		acct.Reset()
		obs.reset()
		run := st.RunBlockedK(in, sn.enc(i), steps, 0, obs)
		tr.add("core.account", id, 0, obs.first, obs.last, false)
		accounted += obs.total
		_, rep := acct.Report(run.Prediction, steps)
		o.attempted++
		if nr.reps[0] == nil {
			o.failed++
			continue
		}
		want := nr.reps[0][i].Detail.(core.Report)
		if run.Prediction != nr.preds[i] || rep.Energy != want.Energy || rep.Counts != want.Counts {
			o.failed++
		}
	}
	tr.end(id)
	lt.account += accounted
	return nil
}

func mismatches(got, want []int) int {
	bad := 0
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// timingObserver forwards every step to the accountant and accumulates the
// time spent inside its ObserveStep, plus the interval from the first call's
// start to the last call's end (the replay of one blocked run).
type timingObserver struct {
	inner       snn.Observer
	total       time.Duration
	first, last time.Time
}

func (t *timingObserver) reset() { t.total, t.first, t.last = 0, time.Time{}, time.Time{} }

func (t *timingObserver) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	t0 := time.Now()
	t.inner.ObserveStep(step, input, layers)
	t1 := time.Now()
	if t.first.IsZero() {
		t.first = t0
	}
	t.last = t1
	t.total += t1.Sub(t0)
}

// modeledSweep reduces round 0's modeled outcomes: per network the mean
// per-classification energy and latency on each backend, combined across
// networks by geometric mean (the paper's "on average"), plus the per-layer
// breakdowns pooled over every classification.
func modeledSweep(nets []*sweepNet, results []*netResults, o *outcome) {
	var eR, lR, gains, speedups, edps []float64
	var layer layerAcc
	for ni := range nets {
		nr := results[ni]
		if nr.res[0] == nil || nr.res[1] == nil || nr.res[2] == nil {
			continue
		}
		er, lr := meanEL(nr.res[0])
		ec, lc := meanEL(nr.res[1])
		ex, lx := meanEL(nr.res[2])
		eR = append(eR, er*1e6)
		lR = append(lR, lr*1e6)
		gains = append(gains, ec/er)
		speedups = append(speedups, lc/lr)
		edps = append(edps, ex*1e6*lx*1e6)
		for i := range nr.res[0] {
			layer.addChip(nr.res[0][i], nr.reps[0][i].Detail.(core.Report))
			layer.addCMOS(nr.res[1][i])
			layer.addShard(nr.reps[2][i].Detail.(shard.Report))
		}
	}
	o.e2e["energy_uj"] = geomean(eR)
	o.e2e["latency_us"] = geomean(lR)
	o.e2e["energy_gain_x"] = geomean(gains)
	o.e2e["speedup_x"] = geomean(speedups)
	o.e2e["x4_edp"] = geomean(edps)
	layer.report(o)
}

func meanEL(rs []perf.Result) (e, l float64) {
	for _, r := range rs {
		e += r.Energy
		l += r.Latency
	}
	n := float64(len(rs))
	return e / n, l / n
}

// layerAcc pools the modeled per-layer figures over classifications.
type layerAcc struct {
	chipN, cmosN, shardN                  int
	sync, bus, delivery, integrate, drain float64
	busWait, neuron, crossbar, periph     float64
	delivered, suppressed, mca, spikes    float64
	cmosE                                 float64
	linkWait, flits, linkE, interval      float64
}

func (a *layerAcc) addChip(res perf.Result, rep core.Report) {
	a.chipN++
	a.sync += float64(rep.Breakdown.Sync)
	a.bus += float64(rep.Breakdown.Bus)
	a.delivery += float64(rep.Breakdown.Delivery)
	a.integrate += float64(rep.Breakdown.Integrate)
	a.drain += float64(rep.Breakdown.Drain)
	a.busWait += float64(rep.BusWait)
	a.neuron += rep.Energy.Neuron
	a.crossbar += rep.Energy.Crossbar
	a.periph += rep.Energy.Peripherals
	a.delivered += float64(rep.Counts.PacketsDelivered)
	a.suppressed += float64(rep.Counts.PacketsSuppressed)
	a.mca += float64(rep.Counts.MCAActivations)
	a.spikes += res.SpikesPerStep
}

func (a *layerAcc) addCMOS(res perf.Result) {
	a.cmosN++
	a.cmosE += res.Energy
}

func (a *layerAcc) addShard(rep shard.Report) {
	a.shardN++
	a.linkWait += float64(rep.Link.WaitCycles)
	a.flits += float64(rep.Link.FlitsSent)
	a.linkE += rep.Link.EnergyJ
	a.interval += rep.Interval
}

func (a *layerAcc) report(o *outcome) {
	div := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	o.layer["core.cycles.sync"] = div(a.sync, a.chipN)
	o.layer["core.cycles.bus"] = div(a.bus, a.chipN)
	o.layer["core.cycles.delivery"] = div(a.delivery, a.chipN)
	o.layer["core.cycles.integrate"] = div(a.integrate, a.chipN)
	o.layer["core.cycles.drain"] = div(a.drain, a.chipN)
	o.layer["core.bus_wait_cycles"] = div(a.busWait, a.chipN)
	o.layer["core.energy.neuron_uj"] = div(a.neuron*1e6, a.chipN)
	o.layer["core.energy.crossbar_uj"] = div(a.crossbar*1e6, a.chipN)
	o.layer["core.energy.peripherals_uj"] = div(a.periph*1e6, a.chipN)
	if att := a.delivered + a.suppressed; att > 0 {
		o.layer["core.suppressed_frac"] = a.suppressed / att
	}
	o.layer["core.mca_activations"] = div(a.mca, a.chipN)
	o.layer["core.spikes_per_step"] = div(a.spikes, a.chipN)
	o.layer["cmos.energy_uj"] = div(a.cmosE*1e6, a.cmosN)
	o.layer["shard.link_wait_cycles"] = div(a.linkWait, a.shardN)
	o.layer["shard.flits_sent"] = div(a.flits, a.shardN)
	o.layer["shard.link_energy_uj"] = div(a.linkE*1e6, a.shardN)
	o.layer["shard.interval_us"] = div(a.interval*1e6, a.shardN)
}

// sweepLatency reduces the resparc calls to the latency metrics at nominal
// host speed. With one image in flight (low) an image's latency is the serial
// call's time per image; with nproc in flight (high) it is the parallel
// call's time per image times the images each worker holds at once. Per
// network, p50 is the median over the rounds and the tail is taken over the
// same samples (all per-layer but the high-load p50, the low-load figures
// being too noisy to bound); networks are combined by geometric mean
// like the modeled metrics, since their latencies differ several-fold. A
// high-load call meets its objective when its latency is within
// sloLoadFactor times its network's low-load p50.
func sweepLatency(nets []*sweepNet, norm [][][]float64, nproc int, o *outcome) {
	var lowP50, highP50, lowTail, highTail []float64
	met, calls := 0, 0
	for ni, sn := range nets {
		inFlight := float64(min(nproc, len(sn.inputs)))
		low := norm[ni][0]
		high := make([]float64, len(norm[ni][1]))
		for i, x := range norm[ni][1] {
			high[i] = x * inFlight
		}
		lowP50 = append(lowP50, median(low))
		highP50 = append(highP50, median(high))
		lt, _ := tail(low)
		ht, _ := tail(high)
		lowTail, highTail = append(lowTail, lt), append(highTail, ht)
		for _, x := range high {
			calls++
			if x <= sloLoadFactor*median(low) {
				met++
			}
		}
	}
	o.layer["lat_ms_p50_low"] = geomean(lowP50)
	o.e2e["lat_ms_p50_high"] = geomean(highP50)
	o.layer["lat_ms_p99_low"] = geomean(lowTail)
	o.layer["lat_ms_p99_high"] = geomean(highTail)
	if calls > 0 {
		o.e2e["slo_attain_high"] = float64(met) / float64(calls)
	}
}
