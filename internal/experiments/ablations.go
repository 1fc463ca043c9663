package experiments

import (
	"fmt"
	"math/rand"

	"resparc/internal/ann"
	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/dataset"
	"resparc/internal/mapping"
	"resparc/internal/mpe"
	"resparc/internal/neurocell"
	"resparc/internal/report"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
	"resparc/internal/xbar"
)

// Ablation experiments: design-space studies beyond the paper's main
// figures, each probing one design decision DESIGN.md calls out.

// PacketWidths is the spike-packet (zero-run-length) sweep of the
// run-length discussion in §5.3.
var PacketWidths = []int{8, 16, 32, 64}

// PacketWidthRow is one packet-width configuration.
type PacketWidthRow struct {
	Width      int
	Energy     float64
	Suppressed float64 // fraction of packets suppressed
}

// AblationPacketWidth sweeps the spike-packet width on the MNIST MLP:
// narrower packets find short zero runs more often (§5.3: "the probability
// of finding zeros with smaller run-lengths is significantly higher") at
// the cost of more packets overall.
func AblationPacketWidth(cfg Config) ([]PacketWidthRow, *report.Table, error) {
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		return nil, nil, fmtErr("ablation-packet-width", err)
	}
	t := report.NewTable("Ablation: spike-packet width (zero run-length), MNIST MLP",
		"Width (bits)", "Energy (J)", "Suppressed")
	var rows []PacketWidthRow
	for _, w := range PacketWidths {
		_, rep, _, err := RunRESPARC(b, cfg.MCASize, cfg, true, w)
		if err != nil {
			return nil, nil, fmtErr("ablation-packet-width", err)
		}
		total := rep.Counts.PacketsDelivered + rep.Counts.PacketsSuppressed
		frac := 0.0
		if total > 0 {
			frac = float64(rep.Counts.PacketsSuppressed) / float64(total)
		}
		rows = append(rows, PacketWidthRow{Width: w, Energy: rep.Energy.Total(), Suppressed: frac})
		t.Add(fmt.Sprintf("%d", w), report.Sci(rep.Energy.Total()), report.Pct(frac))
	}
	return rows, t, nil
}

// InputSharingRow compares the §3.1.1 input-sharing mapper against the
// naive one-unit-per-MCA mapping at one crossbar size.
type InputSharingRow struct {
	Size                      int
	SharedMCAs, NaiveMCAs     int
	SharedUtil, NaiveUtil     float64
	SharedEnergy, NaiveEnergy float64
}

// AblationInputSharing quantifies the mapper's input sharing on a CNN
// benchmark: §3.1.1 claims enumerating the connectivity matrix across
// smaller MCAs with input sharing improves utilization and reduces the
// number of mPEs (and thereby peripheral energy).
func AblationInputSharing(cfg Config) ([]InputSharingRow, *report.Table, error) {
	b, err := bench.ByName("mnist-cnn")
	if err != nil {
		return nil, nil, fmtErr("ablation-input-sharing", err)
	}
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return nil, nil, fmtErr("ablation-input-sharing", err)
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return nil, nil, fmtErr("ablation-input-sharing", err)
	}
	run := func(size int, disable bool) (int, float64, float64, error) {
		mc := cfg.mapConfig(size)
		mc.DisableInputSharing = disable
		m, err := mapping.Map(net, mc)
		if err != nil {
			return 0, 0, 0, err
		}
		copt := core.DefaultOptions()
		copt.Params = cfg.Params
		copt.Steps = cfg.Steps
		chip, err := core.New(net, m, copt)
		if err != nil {
			return 0, 0, 0, err
		}
		res, _, err := chip.ClassifyBatch(inputs, cfg.encoders(), cfg.simOptions())
		if err != nil {
			return 0, 0, 0, err
		}
		return m.MCAs, m.TotalUtilization(), res.Energy, nil
	}
	t := report.NewTable("Ablation: input-sharing mapper vs naive mapping, MNIST CNN",
		"MCA", "Shared MCAs", "Naive MCAs", "Shared util", "Naive util", "Shared E (J)", "Naive E (J)")
	var rows []InputSharingRow
	for _, size := range []int{32, 64} {
		sm, su, se, err := run(size, false)
		if err != nil {
			return nil, nil, fmtErr("ablation-input-sharing", err)
		}
		nm, nu, ne, err := run(size, true)
		if err != nil {
			return nil, nil, fmtErr("ablation-input-sharing", err)
		}
		rows = append(rows, InputSharingRow{
			Size: size, SharedMCAs: sm, NaiveMCAs: nm,
			SharedUtil: su, NaiveUtil: nu, SharedEnergy: se, NaiveEnergy: ne,
		})
		t.Add(fmt.Sprintf("%d", size), fmt.Sprintf("%d", sm), fmt.Sprintf("%d", nm),
			report.Pct(su), report.Pct(nu), report.Sci(se), report.Sci(ne))
	}
	return rows, t, nil
}

// ContentionRow compares the ideal parallel-switch bound against the
// packet-level switch-fabric simulation for one traffic pattern.
type ContentionRow struct {
	Pattern     string
	Packets     int
	IdealCycles int
	RealCycles  int
}

// AblationSwitchContention stresses the §3.1.2 "high throughput parallel
// transfer" assumption with the Fig 6 switch fabric at packet granularity
// (bounded FIFOs with credit backpressure, default depth): spread traffic
// stays within a small factor of the ideal bound; hotspot traffic
// serializes at the destination switch.
func AblationSwitchContention(seed int64) ([]ContentionRow, *report.Table, error) {
	sw, err := neurocell.NewSwitchNet(4)
	if err != nil {
		return nil, nil, fmtErr("ablation-contention", err)
	}
	rng := rand.New(rand.NewSource(seed))
	patterns := []struct {
		name string
		gen  func(n int) []neurocell.Transfer
	}{
		{"neighbor", func(n int) []neurocell.Transfer {
			out := make([]neurocell.Transfer, n)
			for i := range out {
				src := i % 16
				out[i] = neurocell.Transfer{SrcMPE: src, DstMPE: (src + 1) % 16}
			}
			return out
		}},
		{"uniform-random", func(n int) []neurocell.Transfer {
			out := make([]neurocell.Transfer, n)
			for i := range out {
				out[i] = neurocell.Transfer{SrcMPE: rng.Intn(16), DstMPE: rng.Intn(16)}
			}
			return out
		}},
		{"hotspot", func(n int) []neurocell.Transfer {
			out := make([]neurocell.Transfer, n)
			for i := range out {
				out[i] = neurocell.Transfer{SrcMPE: i % 15, DstMPE: 15}
			}
			return out
		}},
	}
	t := report.NewTable("Ablation: switch-fabric contention (4x4 NeuroCell, 9 switches)",
		"Pattern", "Packets", "Ideal cycles", "Simulated cycles", "Slowdown")
	var rows []ContentionRow
	const packets = 72
	for _, p := range patterns {
		st, err := sw.Simulate(p.gen(packets), neurocell.EventOptions{})
		if err != nil {
			return nil, nil, fmtErr("ablation-contention", err)
		}
		ideal := sw.IdealCycles(packets)
		rows = append(rows, ContentionRow{Pattern: p.name, Packets: packets, IdealCycles: ideal, RealCycles: st.Cycles})
		t.Add(p.name, fmt.Sprintf("%d", packets), fmt.Sprintf("%d", ideal),
			fmt.Sprintf("%d", st.Cycles), report.F(float64(st.Cycles)/float64(ideal)))
	}
	return rows, t, nil
}

// GatingRow compares the shipped crossbar (idle cross-points on driven rows
// conduct) against a counterfactual design with power-gated idle columns,
// at one MCA size.
type GatingRow struct {
	Size            int
	Normal, Gated   float64 // joules
	NormalU, GatedU float64 // utilization (identical; shown for context)
}

// AblationColumnGating quantifies how much of the Fig 12(c) CNN penalty is
// the idle-cell conduction: with gating, larger arrays stop paying for
// their unused cross-points and the 64-size optimum moves.
func AblationColumnGating(cfg Config) ([]GatingRow, *report.Table, error) {
	b, err := bench.ByName("mnist-cnn")
	if err != nil {
		return nil, nil, fmtErr("ablation-gating", err)
	}
	t := report.NewTable("Ablation: idle-column power gating, MNIST CNN",
		"MCA", "Normal E (J)", "Gated E (J)", "Saved")
	var rows []GatingRow
	for _, size := range []int{32, 64, 128} {
		normCfg := cfg
		_, repN, m, err := RunRESPARC(b, size, normCfg, true, 0)
		if err != nil {
			return nil, nil, fmtErr("ablation-gating", err)
		}
		gateCfg := cfg
		gateCfg.Params.GateIdleColumns = true
		_, repG, _, err := RunRESPARC(b, size, gateCfg, true, 0)
		if err != nil {
			return nil, nil, fmtErr("ablation-gating", err)
		}
		rows = append(rows, GatingRow{
			Size:   size,
			Normal: repN.Energy.Total(), Gated: repG.Energy.Total(),
			NormalU: m.TotalUtilization(), GatedU: m.TotalUtilization(),
		})
		t.Add(fmt.Sprintf("%d", size), report.Sci(repN.Energy.Total()), report.Sci(repG.Energy.Total()),
			report.Pct(1-repG.Energy.Total()/repN.Energy.Total()))
	}
	return rows, t, nil
}

// EarlyExitRow compares full-budget rate decoding against
// time-to-first-spike early exit on one benchmark.
type EarlyExitRow struct {
	Bench                  string
	FullEnergy, EEEnergy   float64
	FullLatency, EELatency float64
	MeanSteps              float64 // steps actually simulated under early exit
}

// AblationEarlyExit measures the event-driven early-exit opportunity:
// latency (TTFS) decoding lets a classification stop at the first output
// spike instead of running the full timestep budget.
func AblationEarlyExit(cfg Config) ([]EarlyExitRow, *report.Table, error) {
	t := report.NewTable("Extension: time-to-first-spike early exit",
		"Benchmark", "Full E (J)", "Early E (J)", "Full lat (s)", "Early lat (s)", "Mean steps")
	var rows []EarlyExitRow
	for _, name := range []string{"mnist-mlp", "mnist-cnn"} {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, nil, fmtErr("ablation-earlyexit", err)
		}
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("ablation-earlyexit", err)
		}
		m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
		if err != nil {
			return nil, nil, fmtErr("ablation-earlyexit", err)
		}
		copt := core.DefaultOptions()
		copt.Params = cfg.Params
		copt.Steps = cfg.Steps
		chip, err := core.New(net, m, copt)
		if err != nil {
			return nil, nil, fmtErr("ablation-earlyexit", err)
		}
		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("ablation-earlyexit", err)
		}
		var row EarlyExitRow
		row.Bench = name
		for i, in := range inputs {
			fRes, _ := chip.Classify(in, snn.NewPoissonEncoder(cfg.MaxProb, cfg.Seed+7+int64(i)))
			eRess, eReps, err := chip.ClassifyEach([]tensor.Vec{in},
				func(int) snn.Encoder { return snn.NewPoissonEncoder(cfg.MaxProb, cfg.Seed+7+int64(i)) },
				sim.Options{Workers: 1, EarlyExit: true})
			if err != nil {
				return nil, nil, fmtErr("ablation-earlyexit", err)
			}
			row.FullEnergy += fRes.Energy
			row.EEEnergy += eRess[0].Energy
			row.FullLatency += fRes.Latency
			row.EELatency += eRess[0].Latency
			row.MeanSteps += float64(eReps[0].Steps)
		}
		n := float64(len(inputs))
		row.FullEnergy /= n
		row.EEEnergy /= n
		row.FullLatency /= n
		row.EELatency /= n
		row.MeanSteps /= n
		rows = append(rows, row)
		t.Add(name, report.Sci(row.FullEnergy), report.Sci(row.EEEnergy),
			report.Sci(row.FullLatency), report.Sci(row.EELatency), report.F(row.MeanSteps))
	}
	return rows, t, nil
}

// NonIdealityRow is the classification accuracy of a trained network run
// through physical crossbars of one size with non-idealities enabled.
type NonIdealityRow struct {
	Size     int
	Ideal    float64 // accuracy with ideal weights
	Physical float64 // accuracy through perturbed crossbars
}

// AblationNonIdealityAccuracy trains a small digit MLP, maps it at several
// crossbar sizes, and classifies through the electrical crossbar model with
// IR drop and device variation — the end-to-end version of §1's argument
// that large crossbars compute erroneously and reliable sizes are small.
func AblationNonIdealityAccuracy(trainSamples, testSamples, steps int, seed int64) ([]NonIdealityRow, *report.Table, error) {
	train := dataset.Generate(dataset.Digits, trainSamples, seed)
	test := dataset.Generate(dataset.Digits, testSamples, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	mlp := ann.NewMLP(train.Shape.Size(), []int{24}, 10, rng)
	tc := ann.DefaultTrainConfig()
	tc.Epochs = 6
	tc.LR = 0.01
	mlp.Train(train, tc)
	calib, _ := train.Split(minInt(80, trainSamples))
	net, err := snn.FromANN("nonideal-mlp", mlp, calib)
	if err != nil {
		return nil, nil, fmtErr("ablation-nonideality", err)
	}
	// Heavy wire resistance exaggerates the trend at simulation-friendly
	// sizes.
	xcfg := xbar.Config{IRDrop: true, WireResistance: 30, Variation: true}
	t := report.NewTable("Ablation: crossbar non-idealities vs classification accuracy (digits MLP)",
		"MCA size", "Ideal accuracy", "Physical accuracy")
	var rows []NonIdealityRow
	for _, size := range []int{16, 64} {
		mc := mapping.DefaultConfig()
		mc.MCASize = size
		m, err := mapping.Map(net, mc)
		if err != nil {
			return nil, nil, fmtErr("ablation-nonideality", err)
		}
		evalSim := func(mode mpe.Mode, cfg xbar.Config) (float64, error) {
			sim, err := neurocell.New(net, m, mode, cfg)
			if err != nil {
				return 0, err
			}
			if mode == mpe.Physical {
				sim.Perturb(cfg, rand.New(rand.NewSource(seed+9)))
			}
			correct := 0
			enc := snn.NewPoissonEncoder(0.9, seed+5)
			for _, s := range test.Samples {
				if sim.Run(s.Input, enc, steps) == s.Label {
					correct++
				}
			}
			return float64(correct) / float64(len(test.Samples)), nil
		}
		ideal, err := evalSim(mpe.Ideal, xbar.Config{})
		if err != nil {
			return nil, nil, fmtErr("ablation-nonideality", err)
		}
		phys, err := evalSim(mpe.Physical, xcfg)
		if err != nil {
			return nil, nil, fmtErr("ablation-nonideality", err)
		}
		rows = append(rows, NonIdealityRow{Size: size, Ideal: ideal, Physical: phys})
		t.Add(fmt.Sprintf("%d", size), report.Pct(ideal), report.Pct(phys))
	}
	return rows, t, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
