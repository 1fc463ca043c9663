package experiments

import (
	"fmt"
	"math/rand"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/neurocell"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/shard"
	"resparc/internal/sim"
	"resparc/internal/tensor"
)

// eventShardCounts are the chip counts the -fig event shard section sweeps.
var eventShardCounts = []int{1, 2, 4}

// eventChip builds one benchmark's chip under the experiment configuration.
func eventChip(cfg Config, b bench.Benchmark) (*core.Chip, []tensor.Vec, error) {
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return nil, nil, err
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	copt.BlockSize = cfg.BlockSize
	chip, err := core.New(net, m, copt)
	if err != nil {
		return nil, nil, err
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return nil, nil, err
	}
	return chip, inputs, nil
}

// FigEvent compares the two latency reductions of the accountant's stage
// grid: per benchmark the modeled classification cycles (the "stepped"
// serial sum vs the "event" pipelined makespan), the x{1,2,4} sharded
// makespans with link backpressure, and the NoC fabric's congestion against
// the contention-free bound. Every row is modeled, a pure function of the
// seed, so merging them header-preservingly keeps BENCH_RESULTS.json
// byte-identical across same-seed reruns.
func FigEvent(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry
	t := report.NewTable("Event-driven engine (stepped vs event)",
		"Row", "Stepped", "Event", "Ratio", "Wait", "Spikes/step")

	for _, b := range bench.All() {
		chip, inputs, err := eventChip(cfg, b)
		if err != nil {
			return nil, nil, fmtErr("event", err)
		}
		n := len(inputs)

		// Modeled latency: the same classifications, reduced both ways.
		// Predictions/energies are bit-identical; only Cycles differ.
		var cycles [2]int64
		var wait, spikes [2]float64
		for mi, evt := range []bool{false, true} {
			res, srep, err := chip.ClassifyBatch(inputs, cfg.encoders(), sim.Options{Workers: cfg.Workers, EventEngine: evt})
			if err != nil {
				return nil, nil, fmtErr("event", err)
			}
			rep := srep.Detail.(core.Report)
			cycles[mi] = int64(rep.Counts.Cycles) / int64(n)
			wait[mi] = float64(rep.BusWait) / float64(n)
			spikes[mi] = res.SpikesPerStep
			label := "stepped"
			if evt {
				label = "event"
			}
			entries = append(entries, perf.BenchEntry{
				Name:          fmt.Sprintf("event/latency/%s/%s", b.Name, label),
				NsPerOp:       res.Latency * 1e9,
				Iterations:    n,
				ModelCycles:   cycles[mi],
				WaitCycles:    int64(wait[mi]),
				SpikesPerStep: res.SpikesPerStep,
			})
		}
		t.Add("latency/"+b.Name+" (cycles)",
			fmt.Sprintf("%d", cycles[0]), fmt.Sprintf("%d", cycles[1]),
			fmt.Sprintf("%.2fx", float64(cycles[0])/float64(cycles[1])),
			fmt.Sprintf("%.0f", wait[1]), fmt.Sprintf("%.1f", spikes[1]))

		// Sharded pipeline: global makespan with serialized, credit-limited
		// inter-chip links; WaitCycles records the link backpressure.
		for _, sn := range eventShardCounts {
			multi, err := shard.New(chip, shard.Config{Shards: sn})
			if err != nil {
				return nil, nil, fmtErr("event", err)
			}
			res, srep, err := multi.ClassifyBatch(inputs, cfg.encoders(), sim.Options{Workers: cfg.Workers, EventEngine: true})
			if err != nil {
				return nil, nil, fmtErr("event", err)
			}
			rep := srep.Detail.(shard.Report)
			mk := int64(rep.Chip.Counts.Cycles) / int64(n)
			lw := int64(rep.Link.WaitCycles) / int64(n)
			entries = append(entries, perf.BenchEntry{
				Name:          fmt.Sprintf("event/shard/%s/x%d", b.Name, len(rep.Ranges)),
				NsPerOp:       res.Latency * 1e9,
				Iterations:    n,
				Workers:       len(rep.Ranges),
				ModelCycles:   mk,
				WaitCycles:    lw,
				SpikesPerStep: res.SpikesPerStep,
			})
			t.Add(fmt.Sprintf("shard/%s/x%d (cycles)", b.Name, len(rep.Ranges)),
				"", fmt.Sprintf("%d", mk), "", fmt.Sprintf("%d", lw), "")
		}
	}

	// NoC fabric congestion: dim-4 cell, 72 packets per pattern, the
	// cycle-level fabric vs the contention-free bound. The hotspot gap
	// (simulated > ideal) is the acceptance criterion for real congestion
	// modeling.
	nocEntries, err := eventNoCRows(cfg.Seed, 4, 72, t)
	if err != nil {
		return nil, nil, fmtErr("event", err)
	}
	entries = append(entries, nocEntries...)
	return entries, t, nil
}

// eventNoCRows runs the three traffic patterns on the switch fabric
// and records delivery span, queuing and the ideal bound.
func eventNoCRows(seed int64, dim, packets int, t *report.Table) ([]perf.BenchEntry, error) {
	var entries []perf.BenchEntry
	rng := rand.New(rand.NewSource(seed))
	mpes := dim * dim
	for _, pattern := range []string{"neighbor", "random", "hotspot"} {
		tr := make([]neurocell.Transfer, packets)
		for i := range tr {
			switch pattern {
			case "neighbor":
				src := i % mpes
				tr[i] = neurocell.Transfer{SrcMPE: src, DstMPE: (src + 1) % mpes}
			case "random":
				tr[i] = neurocell.Transfer{SrcMPE: rng.Intn(mpes), DstMPE: rng.Intn(mpes)}
			case "hotspot":
				tr[i] = neurocell.Transfer{SrcMPE: i % (mpes - 1), DstMPE: mpes - 1}
			}
		}
		n, err := neurocell.NewSwitchNet(dim)
		if err != nil {
			return nil, err
		}
		st, err := n.Simulate(tr, neurocell.EventOptions{})
		if err != nil {
			return nil, err
		}
		ideal := n.IdealCycles(packets)
		entries = append(entries, perf.BenchEntry{
			Name:        fmt.Sprintf("event/noc/%s", pattern),
			Iterations:  packets,
			ModelCycles: int64(st.Cycles),
			WaitCycles:  int64(st.WaitCycles),
		}, perf.BenchEntry{
			Name:        fmt.Sprintf("event/noc/%s/ideal", pattern),
			Iterations:  packets,
			ModelCycles: int64(ideal),
		})
		t.Add("noc/"+pattern+" (cycles)",
			fmt.Sprintf("%d", ideal), fmt.Sprintf("%d", st.Cycles),
			fmt.Sprintf("%.2fx", float64(st.Cycles)/float64(ideal)),
			fmt.Sprintf("%d", st.WaitCycles), "")
	}
	return entries, nil
}
