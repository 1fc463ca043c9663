package experiments

import (
	"fmt"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/sim"
)

// FigMapper measures placement quality: every benchmark is planned by both
// the greedy and the annealed mapper, each placement is realized into a real
// chip, and the event-engine evaluation reports measured energy, latency and
// their product (EDP — the figure of merit the annealer's weighted objective
// is a proxy for). Predictions are asserted bit-identical across mappers:
// placement moves energy and time, never functional results. All rows are
// pure functions of the seed.
func FigMapper(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry
	t := report.NewTable("Mapping quality (greedy vs annealed)",
		"Benchmark", "Greedy EDP", "Annealed EDP", "Delta", "Energy", "Latency", "Sizes")

	// The annealing budget follows the experiment fidelity: the quick
	// (unit-test) configuration gets short chains, the full run the default.
	iters, chains := 0, 0 // mapper defaults
	if cfg.Steps < DefaultConfig().Steps {
		iters, chains = 80, 2
	}

	for _, b := range bench.All() {
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("mapper", err)
		}
		cons := mapping.DefaultConstraints(cfg.mapConfig(cfg.MCASize))
		cons.Seed = cfg.Seed
		if cfg.Steps < cons.Steps {
			cons.Steps = cfg.Steps
		}
		plans := make(map[string]*mapping.Placement, 2)
		if plans["greedy"], err = (mapping.Greedy{}).Plan(net, cons); err != nil {
			return nil, nil, fmtErr("mapper", err)
		}
		ann := mapping.Annealed{Seed: cfg.Seed, Iters: iters, Chains: chains}
		if plans["annealed"], err = ann.Plan(net, cons); err != nil {
			return nil, nil, fmtErr("mapper", err)
		}

		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("mapper", err)
		}
		type outcome struct {
			energy, latency, edp float64
			preds                []int
		}
		run := func(p *mapping.Placement) (outcome, error) {
			m, err := p.Apply(net)
			if err != nil {
				return outcome{}, err
			}
			copt := core.DefaultOptions()
			copt.Params = cfg.Params
			copt.Steps = cfg.Steps
			copt.BlockSize = cfg.BlockSize
			chip, err := core.New(net, m, copt)
			if err != nil {
				return outcome{}, err
			}
			ress, reps, err := chip.ClassifyEach(inputs, cfg.encoders(), sim.Options{Workers: cfg.Workers, EventEngine: true})
			if err != nil {
				return outcome{}, err
			}
			var o outcome
			o.preds = make([]int, len(reps))
			for i, r := range ress {
				o.energy += r.Energy
				o.latency += r.Latency
				o.preds[i] = reps[i].Predicted
			}
			o.energy /= float64(len(ress))
			o.latency /= float64(len(ress))
			o.edp = o.energy * o.latency
			return o, nil
		}

		var got [2]outcome
		for i, name := range []string{"greedy", "annealed"} {
			p := plans[name]
			o, err := run(p)
			if err != nil {
				return nil, nil, fmtErr("mapper", err)
			}
			got[i] = o
			entries = append(entries, perf.BenchEntry{
				Name:       fmt.Sprintf("mapper/%s/%s", b.Name, name),
				NsPerOp:    o.latency * 1e9,
				Iterations: len(inputs),
				EnergyJ:    o.energy,
				Objective:  o.edp,
			})
		}
		for i := range got[0].preds {
			if got[0].preds[i] != got[1].preds[i] {
				return nil, nil, fmtErr("mapper", fmt.Errorf(
					"%s: prediction %d differs across mappers (greedy %d, annealed %d) — placement must not change functional results",
					b.Name, i, got[0].preds[i], got[1].preds[i]))
			}
		}
		t.Add(b.Name,
			report.Sci(got[0].edp), report.Sci(got[1].edp),
			fmt.Sprintf("%+.1f%%", 100*(got[1].edp-got[0].edp)/got[0].edp),
			fmt.Sprintf("%+.1f%%", 100*(got[1].energy-got[0].energy)/got[0].energy),
			fmt.Sprintf("%+.1f%%", 100*(got[1].latency-got[0].latency)/got[0].latency),
			fmt.Sprintf("%v", plans["annealed"].Sizes()))
	}
	return entries, t, nil
}
