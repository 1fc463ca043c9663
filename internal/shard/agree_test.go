package shard

import (
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/cost"
	"resparc/internal/mapping"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// TestCostModelMatchesSimulation is the "cost model value == simulated
// value" check: for every Fig 10 network, mapper and chip count, the
// placement's modeled cost must be what the simulator charges for the
// mapper's own probe classification (mid-gray input, the probe encoder,
// Constraints.Steps timesteps, pipelined latency). Both must agree exactly:
// latency because both sides run cost.Pipeline over the same stage grid and
// hops, energy because both tally the same counts through the same gather
// (mapping.Gather.Visit), price them with the same function (cost.Energy)
// and reduce layers and hops in the same order.
func TestCostModelMatchesSimulation(t *testing.T) {
	mappers := []mapping.Mapper{mapping.Greedy{}, mapping.Annealed{Seed: 1}}
	for _, b := range bench.All() {
		if testing.Short() && b.Name != "mnist-mlp" && b.Name != "mnist-cnn" {
			continue
		}
		net, err := b.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range mappers {
			for _, shards := range []int{1, 4} {
				cons := mapping.DefaultConstraints(mapping.DefaultConfig())
				cons.Shards = shards
				p, err := mp.Plan(net, cons)
				if err != nil {
					t.Fatal(err)
				}
				energyJ, latencyS := simulateProbe(t, net, p, cons)
				if latencyS != p.Cost.LatencyS {
					t.Errorf("%s %s x%d: modeled latency %v s, simulated %v s",
						b.Name, mp.Name(), shards, p.Cost.LatencyS, latencyS)
				}
				if energyJ != p.Cost.EnergyJ {
					t.Errorf("%s %s x%d: modeled energy %v J, simulated %v J",
						b.Name, mp.Name(), shards, p.Cost.EnergyJ, energyJ)
				}
			}
		}
	}
}

// simulateProbe realizes the placement and runs the cost model's probe
// classification through the simulator with the pipelined latency.
func simulateProbe(t *testing.T, net *snn.Network, p *mapping.Placement, cons mapping.Constraints) (energyJ, latencyS float64) {
	t.Helper()
	m, err := p.Apply(net)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := core.New(net, m, core.Options{
		Params: cons.Params, EventDriven: cons.EventDriven,
		PacketWidth: cons.PacketWidth, Steps: cons.Steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	var be sim.Backend = chip
	if len(p.ShardCuts) > 0 {
		if be, err = New(chip, Config{Cuts: p.ShardCuts, Link: cost.DefaultLink(cons.Params)}); err != nil {
			t.Fatal(err)
		}
	}
	probe := tensor.NewVec(net.Input.Size())
	probe.Fill(0.5)
	enc := func(int) snn.Encoder { return snn.NewPoissonEncoder(cons.MaxProb, cons.Seed+7).ForkSeed(0) }
	res, _, err := be.ClassifyEach([]tensor.Vec{probe}, enc, sim.Options{EventEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Energy, res[0].Latency
}

// BenchmarkMakespan times one warm pipelined multi-chip model of the
// cifar-cnn x4 probe classification (the balanced four-chip partition, the
// mapper's 16-step mid-gray probe): the call the annealer makes for every
// candidate it prices — the hops priced off the stage grid plus the global
// makespan.
func BenchmarkMakespan(b *testing.B) {
	bm, err := bench.ByName("cifar-cnn")
	if err != nil {
		b.Fatal(err)
	}
	chip := chipFor(b, bm)
	multi, err := New(chip, Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	probe := tensor.NewVec(chip.Net.Input.Size())
	probe.Fill(0.5)
	_, srep := chip.Classify(probe, snn.NewPoissonEncoder(0.8, 8).ForkSeed(0))
	grid := srep.Detail.(core.Report).Stages

	var sh cost.Shards
	sh.Run(grid, multi.inWords, multi.cuts, multi.cfg.Link, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Run(grid, multi.inWords, multi.cuts, multi.cfg.Link, true)
	}
}
