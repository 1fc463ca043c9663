package experiments

import (
	"fmt"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/shard"
	"resparc/internal/sim"
)

// shardBenchmarks are the networks the multi-chip sweep covers: one dense
// benchmark plus both convolutional ones (the deep stacks where pipelining
// across chips actually pays).
var shardBenchmarks = []string{"mnist-mlp", "mnist-cnn", "cifar-cnn"}

// shardCounts are the chip counts compared per benchmark; x1 is the
// single-chip reference the pipeline is measured against.
var shardCounts = []int{1, 4}

// FigShard models multi-chip pipeline throughput: each benchmark is
// partitioned onto 1 and 4 chips and classified over the configured samples,
// recording the modeled initiation interval (the slowest shard stage or
// busiest inter-chip hop). The entries are modeled, not wall-clock — the
// same seed reproduces them bit-identically — so they merge into
// BENCH_RESULTS.json as a stable record of the sharding speedup.
func FigShard(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry
	t := report.NewTable("Multi-chip pipeline throughput (modeled)",
		"Benchmark", "Chips", "Interval us", "images/sec", "Link flits", "Speedup")

	for _, name := range shardBenchmarks {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, nil, fmtErr("shard", err)
		}
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("shard", err)
		}
		m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
		if err != nil {
			return nil, nil, fmtErr("shard", err)
		}
		copt := core.DefaultOptions()
		copt.Params = cfg.Params
		copt.Steps = cfg.Steps
		copt.BlockSize = cfg.BlockSize
		chip, err := core.New(net, m, copt)
		if err != nil {
			return nil, nil, fmtErr("shard", err)
		}
		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("shard", err)
		}

		base := 0.0
		for _, n := range shardCounts {
			multi, err := shard.New(chip, shard.Config{Shards: n})
			if err != nil {
				return nil, nil, fmtErr("shard", err)
			}
			_, srep, err := multi.ClassifyBatch(inputs, cfg.encoders(), sim.Options{})
			if err != nil {
				return nil, nil, fmtErr("shard", err)
			}
			rep := srep.Detail.(shard.Report)
			ips := rep.ImagesPerSec()
			entries = append(entries, perf.BenchEntry{
				Name:         fmt.Sprintf("shard/%s/x%d", name, len(rep.Ranges)),
				NsPerOp:      rep.Interval * 1e9,
				ImagesPerSec: ips,
				Iterations:   len(inputs),
				Workers:      len(rep.Ranges),
			})
			speedup := "1.00x"
			if n == shardCounts[0] {
				base = ips
			} else if base > 0 {
				speedup = fmt.Sprintf("%.2fx", ips/base)
			}
			t.Add(name, fmt.Sprintf("%d", len(rep.Ranges)),
				fmt.Sprintf("%.2f", rep.Interval*1e6), fmt.Sprintf("%.0f", ips),
				fmt.Sprintf("%d", rep.Link.FlitsSent), speedup)
		}
	}
	return entries, t, nil
}
