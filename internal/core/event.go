package core

import (
	"math/bits"

	"resparc/internal/bitvec"
	"resparc/internal/event"
	"resparc/internal/mapping"
)

// This file is the chip's accountant: the transaction-level model of §4.2
// charged once per (timestep, layer) visit. Each MCA's driven-row count is
// gathered rather than scattered: the chip-cached layer plan stores every
// MCA's input rows as (64-bit spike storage word, bit mask) pairs, so a
// visit costs one popcount per mapped (MCA, word) pair however dense the
// spikes are. Packet-word occupancy is read straight off the spike words at
// the chip packet width.
//
// Every visit records its per-phase durations in a StageDur grid, which
// Report reduces two ways:
//
//  1. Serially (the default, the paper's latency): Counts.Cycles is the sum
//     of every stage's sync, bus, delivery, integrate and drain cycles —
//     exactly Breakdown.Total().
//  2. Pipelined (sim.Options.EventEngine): Report.Pipeline replaces Cycles
//     with the makespan of a discrete-event simulation of the same grid
//     (Fig 7a), where layer stages overlap across timesteps and the shared
//     global bus is a FIFO resource.
//
// Energies are float sums, and float addition is not associative, so the
// charges follow one fixed order: per mPE run, first the active MCAs'
// charges in allocation order, then the run's word charges in
// first-encounter order. A test-only copy of the original step-major loop
// (oracle_test.go) pins every energy and counter to that order bit for bit.

// StageDur is the modeled duration of one (timestep, layer) pipeline stage,
// split by resource class: Sync is the global-control flag synchronization,
// Bus the shared global-bus occupancy (serializes across all stages), Local
// the NeuroCell-internal phases (switch delivery, time-multiplexed
// integration, spike drain) that overlap freely across layers.
type StageDur struct{ Sync, Bus, Local int32 }

// mcaPlan precomputes one MCA's per-activation constants, so each charge
// adds the same float64 the per-row model produces.
type mcaPlan struct {
	factorXbar float64 // crossbar energy per driven row
	integrateE float64 // neuron integration energy per activation
	outs       int32   // len(Outputs)
	group      int32
	ext        bool // MCA lives outside its group owner's mPE
}

// mpeRun is one contiguous run of same-mPE MCAs in allocation order, with
// its deduped source-word list (indices into layerPlan.words): the mPE's
// buffers receive each word once and fan it out to the run's MCAs.
type mpeRun struct{ mcaLo, mcaHi, wordLo, wordHi int32 }

// layerPlan is the chip-cached static structure of one layer's mapping.
type layerPlan struct {
	// MCA a's driven rows are Σ popcount(spikes.Words()[gWord[k]] & gMask[k])
	// over k in [gOff[a], gOff[a+1]). A mask holds distinct bits of one
	// storage word; an input wired to several rows of one MCA opens a new
	// pair for each repeat, so it counts once per driven row.
	gOff   []int32
	gWord  []int32
	gMask  []uint64
	runs   []mpeRun
	words  []int32 // concatenated per-run word lists, first-encounter order
	mcas   []mcaPlan
	nwords int // words of the layer's input vector at the chip packet width
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

// layerPlans returns the per-layer plans, building them on first use. They
// derive from the mapping's placements; Remapped drops them when those
// change in place.
func (c *Chip) layerPlans() []layerPlan {
	c.plansMu.Lock()
	defer c.plansMu.Unlock()
	if c.plans == nil {
		c.plans = buildPlans(c.Map, c.Opt)
	}
	return c.plans
}

// Remapped rebuilds what the chip derives from its mapping's placements —
// the group owners and the layer plans — after the mapping was changed in
// place (mapping.RemapFaulty moves MCAs to spare mPEs). The caller must keep
// classifications off the chip while the mapping changes and until
// Remapped returns.
func (c *Chip) Remapped() {
	c.plansMu.Lock()
	c.plans = nil
	c.plansMu.Unlock()
}

func buildPlans(m *mapping.Mapping, opt Options) []layerPlan {
	p := opt.Params
	w := opt.PacketWidth
	owners := groupOwners(m)
	plans := make([]layerPlan, len(m.Layers))
	for li := range m.Layers {
		lm := &m.Layers[li]
		pl := &plans[li]
		insz := lm.Layer.InSize()
		pl.nwords = (insz + w - 1) / w
		pl.mcas = make([]mcaPlan, len(lm.MCAs))
		pl.gOff = make([]int32, len(lm.MCAs)+1)
		curMPE := -1
		mcaLo, wordLo := int32(0), int32(0)
		seen := map[int]bool{}
		for ai := range lm.MCAs {
			mca := &lm.MCAs[ai]
			if mca.MPE != curMPE {
				if ai > 0 {
					pl.runs = append(pl.runs, mpeRun{mcaLo, int32(ai), wordLo, int32(len(pl.words))})
					mcaLo, wordLo = int32(ai), int32(len(pl.words))
					clear(seen)
				}
				curMPE = mca.MPE
			}
			// Crossbar: every cross-point on a driven row conducts; used
			// cells at programmed conductance, idle cells at the GMin pair
			// (unless the counterfactual column gating is enabled).
			usedPerRow := 0.0
			if len(mca.Inputs) > 0 {
				usedPerRow = float64(mca.Taps) / float64(len(mca.Inputs))
			}
			idlePerRow := float64(m.LayerSize(li)) - usedPerRow
			if p.GateIdleColumns {
				idlePerRow = 0
			}
			pl.mcas[ai] = mcaPlan{
				factorXbar: usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac,
				integrateE: float64(len(mca.Outputs)) * p.NeuronIntegrate,
				outs:       int32(len(mca.Outputs)),
				group:      int32(mca.Group),
				ext:        int32(mca.MPE) != owners[li][mca.Group],
			}
			lastWord := -1
			for _, in := range mca.Inputs {
				sw, bit := in>>6, uint64(1)<<(in&63)
				if g := len(pl.gWord) - 1; g >= int(pl.gOff[ai]) && pl.gWord[g] == sw && pl.gMask[g]&bit == 0 {
					pl.gMask[g] |= bit
				} else {
					pl.gWord = append(pl.gWord, sw)
					pl.gMask = append(pl.gMask, bit)
				}
				word := int(in) / w
				if word != lastWord {
					lastWord = word
					if !seen[word] {
						seen[word] = true
						pl.words = append(pl.words, int32(word))
					}
				}
			}
			pl.gOff[ai+1] = int32(len(pl.gWord))
		}
		if len(lm.MCAs) > 0 {
			pl.runs = append(pl.runs, mpeRun{mcaLo, int32(len(lm.MCAs)), wordLo, int32(len(pl.words))})
		}
	}
	return plans
}

// stageRow returns the (zeroed-by-overwrite) duration row for a step,
// growing the grid as steps are observed.
func (o *observer) stageRow(step int) []StageDur {
	for len(o.stages) <= step {
		o.stages = append(o.stages, make([]StageDur, o.hi-o.lo))
	}
	o.nsteps = max(o.nsteps, step+1)
	return o.stages[step]
}

// ObserveStep implements snn.Observer: it charges one timestep's events.
// layers holds the spike vectors of the observed range only (local indices);
// input is the spike vector feeding the range's first layer. Per layer, the
// charges flow run by run in the fixed float order, each MCA's driven rows
// gathered from the input's storage words as it is charged.
func (o *observer) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	c := o.chip
	p := c.Opt.Params
	w := c.Opt.PacketWidth
	ed := c.Opt.EventDriven
	cur := input
	row := o.stageRow(step)
	for j := 0; j < o.hi-o.lo; j++ {
		gi := o.lo + j
		lm := &c.Map.Layers[gi]
		pl := &o.plans[gi]
		le := &o.layerE[j]
		prevCnt := o.cnt
		prevE := *le

		// ---- Global control: event-flag synchronization (flags are read
		// eight NeuroCells per access) ----
		syncCycles := p.SyncCyclesPerNC * ((lm.NCLast - lm.NCFirst + 1 + 7) / 8)
		o.breakdown.Sync += syncCycles

		// Packet-word occupancy, read off the spike words once per visit.
		if cap(o.occ) < pl.nwords {
			o.occ = make([]bool, pl.nwords)
		}
		occ := o.occ[:pl.nwords]
		sent := pl.nwords
		if ed {
			sent = 0
			for k := range occ {
				lo := k * w
				occ[k] = cur.LoadBits(lo, min(w, cur.Len()-lo)) != 0
				if occ[k] {
					sent++
				}
			}
		}

		// ---- Global bus & SRAM (§3.1.3) ----
		busCycles := 0
		if c.Map.CrossNC(gi) {
			total := pl.nwords
			zero := total - sent
			le.Peripherals += float64(total) * p.ZeroCheck
			// Producer write to SRAM + broadcast read: two bus transactions
			// and two SRAM accesses per surviving word (layer 0 is loaded by
			// the host, so only the broadcast read applies).
			per := 2.0
			if gi == 0 {
				per = 1.0
			}
			le.Peripherals += float64(sent) * per * (p.BusWord + c.sram.AccessEnergy())
			o.cnt.BusWords += sent
			o.cnt.BusWordsSuppressed += zero
			// Broadcast serializes on the bus, several words per cycle.
			busCycles = (sent + p.BusWordsPerCycle - 1) / p.BusWordsPerCycle
			o.busCycles += busCycles
			o.breakdown.Bus += busCycles
		}

		// ---- Switch network delivery + MCA activity ----
		// Spike packets are the width-bit aligned words of the producer
		// layer's spike vector, zero-checked at the sending switch (§3.2)
		// and delivered once per target mPE. Run by run: the active MCAs'
		// charges in allocation order, then the run's word charges in
		// first-encounter order.
		delivered := 0
		maxMux := int32(0)
		ga := o.groupScratch(j, lm.Groups)
		clear(ga)
		spikeWords := cur.Words()
		for ri := range pl.runs {
			run := &pl.runs[ri]
			for mi := run.mcaLo; mi < run.mcaHi; mi++ {
				r := 0
				gw := pl.gWord[pl.gOff[mi]:pl.gOff[mi+1]]
				gm := pl.gMask[pl.gOff[mi]:pl.gOff[mi+1]]
				for k, sw := range gw {
					r += bits.OnesCount64(spikeWords[sw] & gm[k])
				}
				if r == 0 && ed {
					continue
				}
				mp := &pl.mcas[mi]
				o.cnt.MCAActivations++
				o.cnt.RowsDriven += r
				le.Peripherals += p.MPEControl
				le.Crossbar += float64(r) * mp.factorXbar
				// Neuron integration of this MCA's columns.
				o.cnt.Integrations += int(mp.outs)
				le.Neuron += mp.integrateE
				if mp.ext {
					o.cnt.ExtTransfers++
				}
				if ga[mp.group]++; ga[mp.group] > maxMux {
					maxMux = ga[mp.group]
				}
			}
			for wi := run.wordLo; wi < run.wordHi; wi++ {
				le.Peripherals += p.ZeroCheck
				if !ed || occ[pl.words[wi]] {
					delivered++
					le.Peripherals += p.SwitchHop + 2*p.BufferAccess
				} else {
					o.cnt.PacketsSuppressed++
				}
			}
		}
		o.cnt.PacketsDelivered += delivered
		sw := lm.Switches(c.Map.Cfg)
		deliveryCycles := (delivered + sw - 1) / sw
		o.breakdown.Delivery += deliveryCycles
		integrateCycles := int(maxMux) * p.IntegrateCycles
		o.breakdown.Integrate += integrateCycles

		// ---- Fire ----
		out := layers[j]
		spikes := out.Count()
		o.cnt.Spikes += spikes
		o.layerSpikes[j] += spikes
		le.Neuron += float64(spikes) * p.NeuronSpike
		// Every spike is handled by the peripherals: oBUFF write, tBUFF
		// target lookup, packet assembly.
		le.Peripherals += float64(spikes) * p.SpikeHandling
		// Spikes drain through the mPEs' output ports in parallel, one per
		// mPE per cycle.
		drainCycles := 0
		if spikes > 0 || maxMux > 0 {
			mpes := lm.MPELast - lm.MPEFirst + 1
			drainCycles = (spikes + mpes - 1) / mpes
			if spikes == 0 {
				drainCycles++ // threshold-check cycle with no spikes
			}
			o.breakdown.Drain += drainCycles
		}

		local := deliveryCycles + integrateCycles + drainCycles
		row[j] = StageDur{Sync: int32(syncCycles), Bus: int32(busCycles), Local: int32(local)}
		stage := syncCycles + busCycles + local
		o.layerCycles[j] += stage
		o.cnt.Cycles += stage

		if c.Opt.Trace != nil {
			o.writeTrace(step, gi, cur, out, prevCnt, prevE)
		}
		cur = out
	}
}

// PipelineMakespan runs the Fig 7(a) pipeline on the event engine: stage
// (layer j, timestep t) starts once stage (j, t-1) and stage (j-1, t) are
// both done, holds the shared global bus (a FIFO resource) for its bus
// phase, and completes after its local phase. Grants follow completion-event
// order — (tick, layer) — so the makespan is deterministic. stages is
// indexed [timestep][layer]; busWait, when non-nil, receives the total
// cycles stages spent queued for the bus.
func PipelineMakespan(stages [][]StageDur, busWait *int64) int64 {
	T := len(stages)
	if T == 0 {
		return 0
	}
	L := len(stages[0])
	if L == 0 {
		return 0
	}
	var eng event.Engine
	var bus event.Resource
	need := make([][]int8, T)
	for t := range need {
		need[t] = make([]int8, L)
		for j := range need[t] {
			if t > 0 {
				need[t][j]++
			}
			if j > 0 {
				need[t][j]++
			}
		}
	}
	var launch func(t, j int)
	signal := func(t, j int) {
		if t >= T || j >= L {
			return
		}
		need[t][j]--
		if need[t][j] <= 0 {
			launch(t, j)
		}
	}
	launch = func(t, j int) {
		d := stages[t][j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := bus.Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		eng.Schedule(end, int32(j), func() {
			signal(t, j+1)
			signal(t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0) })
	makespan := eng.Run()
	if busWait != nil {
		*busWait = bus.Wait()
	}
	return makespan
}
