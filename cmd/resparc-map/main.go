// Command resparc-map plans, inspects and compares RESPARC placements.
//
// Subcommands:
//
//	resparc-map plan [-bench mnist-cnn] [-mapper annealed] [-tech Ag-Si]
//	                 [-mca 64] [-sizes 32,64,128] [-shards 1] [-steps 16]
//	                 [-seed 1] [-iters 400] [-chains 4] [-o plan.json]
//	    runs a mapper (greedy, annealed, or uniform — the best single-size
//	    sweep) and writes the versioned Placement JSON artifact.
//
//	resparc-map show plan.json
//	    prints the per-layer placement table and the modeled cost breakdown.
//
//	resparc-map diff a.json b.json
//	    compares two placements of the same network: per-layer size and
//	    alignment changes plus the energy/latency/traffic deltas.
//
// Invoked without a subcommand it keeps the legacy report: the per-layer
// mapping of one benchmark at one crossbar size plus the technology-aware
// best-size search (paper contribution 3).
//
//	resparc-map [-bench mnist-cnn] [-mca 64] [-tech Ag-Si] [-best]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"resparc/internal/bench"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resparc-map: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "plan":
			runPlan(os.Args[2:])
			return
		case "show":
			runShow(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		}
	}
	runLegacy()
}

// runPlan maps a benchmark with the chosen mapper and emits the Placement
// artifact other tools (core, shard, resparc-serve) consume.
func runPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	name := fs.String("bench", "mnist-cnn", "benchmark name (see resparc-sim)")
	mapper := fs.String("mapper", "annealed", "mapper: greedy, annealed, or uniform (best single-size sweep)")
	techName := fs.String("tech", "Ag-Si", "memristive technology: PCM|Ag-Si|Spintronic")
	mca := fs.Int("mca", 64, "baseline MCA size the greedy start uses")
	sizesFlag := fs.String("sizes", "", "comma-separated candidate MCA sizes (empty: 32,64,128 clipped to the technology)")
	shards := fs.Int("shards", 1, "model a multi-chip pipeline with this many shards; cut points go into the artifact")
	steps := fs.Int("steps", 0, "probe timesteps for the cost model (0: default)")
	seed := fs.Int64("seed", 1, "annealer seed (same seed, same artifact)")
	iters := fs.Int("iters", 0, "annealing iterations per chain (0: default)")
	chains := fs.Int("chains", 0, "parallel annealing chains (0: default)")
	out := fs.String("o", "", "output file (empty: stdout)")
	fs.Parse(args)

	tech, err := techByName(*techName)
	if err != nil {
		log.Fatal(err)
	}
	b, err := bench.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	net, err := b.Build(1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mapping.DefaultConfig()
	cfg.MCASize = *mca
	cfg.Tech = tech
	cons := mapping.DefaultConstraints(cfg)
	cons.Shards = *shards
	cons.Seed = *seed
	if *steps > 0 {
		cons.Steps = *steps
	}
	if *sizesFlag != "" {
		sizes, err := parseSizes(*sizesFlag)
		if err != nil {
			log.Fatal(err)
		}
		cons.Sizes = sizes
	}

	var p *mapping.Placement
	switch *mapper {
	case "greedy":
		p, err = (mapping.Greedy{}).Plan(net, cons)
	case "annealed":
		p, err = (mapping.Annealed{Seed: *seed, Iters: *iters, Chains: *chains}).Plan(net, cons)
	case "uniform":
		p, err = mapping.BestUniform(net, cons)
	default:
		log.Fatalf("unknown mapper %q (want greedy, annealed or uniform)", *mapper)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *out == "" {
		if err := mapping.WritePlacement(os.Stdout, p); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := mapping.WritePlacementFile(*out, p); err != nil {
		log.Fatal(err)
	}
	log.Printf("%s: %s placement of %s written (objective %.4f, %.3e J, %.3e s)",
		*out, p.Mapper, p.Network, p.Cost.Objective, p.Cost.EnergyJ, p.Cost.LatencyS)
}

// runShow renders one placement artifact.
func runShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: resparc-map show <placement.json>")
	}
	p, err := mapping.ReadPlacementFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s placement of %s (%s, schema v%d, seed %d)\n\n",
		p.Mapper, p.Network, p.Tech, p.SchemaVersion, p.Seed)
	t := report.NewTable("Per-layer placement", "Layer", "MCA size", "NC-aligned", "MCAs", "mPEs", "Util", "Input via")
	for _, lp := range p.Layers {
		t.Add(lp.Name, fmt.Sprintf("%d", lp.MCASize), boolMark(lp.NCAlign),
			fmt.Sprintf("%d", lp.MCAs), fmt.Sprintf("%d", lp.MPEs),
			report.Pct(lp.Utilization), lp.Transport)
	}
	t.Render(os.Stdout)
	if len(p.ShardCuts) > 0 {
		fmt.Printf("\nShard cuts (layer starts): %v (%d chips)\n", p.ShardCuts, len(p.ShardCuts)+1)
	}
	fmt.Println()
	printCost("Modeled cost", p.Cost)
}

// runDiff compares two placements of the same network.
func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		log.Fatal("usage: resparc-map diff <a.json> <b.json>")
	}
	a, err := mapping.ReadPlacementFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	b, err := mapping.ReadPlacementFile(fs.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if a.Network != b.Network {
		log.Fatalf("placements map different networks: %q vs %q", a.Network, b.Network)
	}
	if len(a.Layers) != len(b.Layers) {
		log.Fatalf("layer counts differ: %d vs %d", len(a.Layers), len(b.Layers))
	}
	fmt.Printf("%s: %s (%s) vs %s (%s)\n\n", a.Network, fs.Arg(0), a.Mapper, fs.Arg(1), b.Mapper)
	t := report.NewTable("Per-layer differences", "Layer", "Size", "", "Aligned", "", "MCAs", "")
	changed := 0
	for i, la := range a.Layers {
		lb := b.Layers[i]
		if la.MCASize == lb.MCASize && la.NCAlign == lb.NCAlign && la.MCAs == lb.MCAs {
			continue
		}
		changed++
		t.Add(la.Name,
			fmt.Sprintf("%d", la.MCASize), fmt.Sprintf("%d", lb.MCASize),
			boolMark(la.NCAlign), boolMark(lb.NCAlign),
			fmt.Sprintf("%d", la.MCAs), fmt.Sprintf("%d", lb.MCAs))
	}
	if changed == 0 {
		fmt.Println("Layer placements identical.")
	} else {
		t.Render(os.Stdout)
	}
	if fmt.Sprint(a.ShardCuts) != fmt.Sprint(b.ShardCuts) {
		fmt.Printf("\nShard cuts: %v vs %v\n", a.ShardCuts, b.ShardCuts)
	}
	fmt.Println()
	ct := report.NewTable("Cost comparison", "Metric", fs.Arg(0), fs.Arg(1), "Delta")
	row := func(name string, va, vb float64, format func(float64) string) {
		delta := "-"
		if va != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
		}
		ct.Add(name, format(va), format(vb), delta)
	}
	sci := func(v float64) string { return report.Sci(v) }
	num := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	count := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	row("Energy (J)", a.Cost.EnergyJ, b.Cost.EnergyJ, sci)
	row("Latency (s)", a.Cost.LatencyS, b.Cost.LatencyS, sci)
	row("Link flits", float64(a.Cost.LinkFlits), float64(b.Cost.LinkFlits), count)
	row("Link energy (J)", a.Cost.LinkEnergyJ, b.Cost.LinkEnergyJ, sci)
	row("Objective", a.Cost.Objective, b.Cost.Objective, num)
	row("mPEs", float64(a.Cost.MPEs), float64(b.Cost.MPEs), count)
	row("NeuroCells", float64(a.Cost.NCs), float64(b.Cost.NCs), count)
	ct.Render(os.Stdout)
}

func printCost(title string, c mapping.CostBreakdown) {
	t := report.NewTable(title, "Metric", "Value")
	t.Add("Energy (J)", report.Sci(c.EnergyJ))
	t.Add("Latency (s)", report.Sci(c.LatencyS))
	t.Add("Link flits", fmt.Sprintf("%d", c.LinkFlits))
	t.Add("Link energy (J)", report.Sci(c.LinkEnergyJ))
	t.Add("Objective", fmt.Sprintf("%.4f", c.Objective))
	t.Add("mPEs", fmt.Sprintf("%d", c.MPEs))
	t.Add("NeuroCells", fmt.Sprintf("%d", c.NCs))
	t.Render(os.Stdout)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes in %q", s)
	}
	return out, nil
}

// runLegacy is the original flat-flag mapping report.
func runLegacy() {
	name := flag.String("bench", "mnist-cnn", "benchmark name (see resparc-sim)")
	mca := flag.Int("mca", 64, "MCA (crossbar) size")
	techName := flag.String("tech", "Ag-Si", "memristive technology: PCM|Ag-Si|Spintronic")
	best := flag.Bool("best", false, "also search the energy-optimal MCA size for the technology")
	floorplan := flag.Bool("floorplan", false, "render the NeuroCell floorplan (first 8 NCs)")
	flag.Parse()

	tech, err := techByName(*techName)
	if err != nil {
		log.Fatal(err)
	}
	b, err := bench.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	net, err := b.Build(1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mapping.DefaultConfig()
	cfg.MCASize = *mca
	cfg.Tech = tech
	m, err := mapping.Map(net, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s mapped on RESPARC-%d (%s, max reliable size %d)\n\n", b.Name, *mca, tech.Name, tech.MaxSize)
	t := report.NewTable("Per-layer mapping", "Layer", "Kind", "Neurons", "Synapses", "MCAs", "Groups", "Mux", "Util", "mPEs", "NCs", "Input via")
	for li, lm := range m.Layers {
		t.Add(lm.Layer.Name, lm.Layer.Kind.String(),
			fmt.Sprintf("%d", lm.Layer.OutSize()), fmt.Sprintf("%d", lm.Layer.Synapses()),
			fmt.Sprintf("%d", len(lm.MCAs)), fmt.Sprintf("%d", lm.Groups), fmt.Sprintf("%d", lm.MuxDegree),
			report.Pct(lm.Utilization),
			fmt.Sprintf("%d-%d", lm.MPEFirst, lm.MPELast),
			fmt.Sprintf("%d-%d", lm.NCFirst, lm.NCLast),
			m.TransportOf(li).String())
	}
	t.Render(os.Stdout)
	fmt.Printf("\nTotals: %d MCAs, %d mPEs, %d NeuroCells, utilization %s\n",
		m.MCAs, m.MPEs, m.NCs, report.Pct(m.TotalUtilization()))
	pe, pt := m.ProgramCost()
	fmt.Printf("One-off configuration cost (%s write-verify): %s J in %s s\n",
		tech.Name, report.Sci(pe), report.Sci(pt))

	if *floorplan {
		fmt.Println()
		fmt.Print(m.Floorplan(8))
	}

	if *best {
		// Minimize modeled energy alone: the default objective also weighs
		// latency, which favors small arrays.
		cons := mapping.DefaultConstraints(cfg)
		cons.Sizes = []int{32, 64, 128, 256}
		cons.Weights = mapping.Weights{Energy: 1}
		p, err := mapping.BestUniform(net, cons)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nTechnology-aware best MCA size on %s (candidates %v, those above %d skipped): %d (%.3e J/classification, modeled)\n",
			tech.Name, cons.Sizes, tech.MaxSize, p.Layers[0].MCASize, p.Cost.EnergyJ)
	}
}

func techByName(name string) (device.Technology, error) {
	for _, t := range device.All() {
		if strings.EqualFold(t.Name, name) {
			return t, nil
		}
	}
	return device.Technology{}, fmt.Errorf("unknown technology %q (want PCM, Ag-Si or Spintronic)", name)
}
