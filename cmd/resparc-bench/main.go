// Command resparc-bench regenerates the paper's tables and figures, and
// benchmarks the evaluation pipeline itself.
//
// Usage:
//
//	resparc-bench [-fig all|8|9|10|11|12|13|14a|14b|ablations|checklist|bench|shard|fleet|event|mapper]
//	              [-quick] [-out FILE] [-workers N] [-json FILE]
//	              [-blocksize K] [-check] [-cpuprofile FILE] [-memprofile FILE]
//
// -fig bench measures the hot evaluation paths (functional SNN evaluator
// and chip simulation, serial vs parallel) and writes the machine-readable
// BENCH_RESULTS.json used to track the perf trajectory across PRs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"resparc/internal/experiments"
	"resparc/internal/perf"
	"resparc/internal/repair"
	"resparc/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resparc-bench: ")
	fig := flag.String("fig", "all", "figure to regenerate: all, 8, 9, 10, 11, 12, 13, 14a, 14b, ablations, checklist, sensitivity, bench, faults, lifetime, shard, fleet, event, mapper")
	quick := flag.Bool("quick", false, "reduced fidelity (fewer steps/samples) for smoke runs")
	seed := flag.Int64("seed", 1, "experiment seed; same seed, same results (byte-identical JSON for -fig faults)")
	outPath := flag.String("out", "", "also write the output to this file")
	workers := flag.Int("workers", 0, "evaluation worker-pool size (<= 0: one per CPU); results are identical for any value")
	jsonPath := flag.String("json", "BENCH_RESULTS.json", "where -fig bench writes its machine-readable results")
	faultJSON := flag.String("faultjson", "FAULT_RESULTS.json", "where -fig faults and -fig lifetime merge their machine-readable results")
	blockSize := flag.Int("blocksize", 0, "temporal block length of the blocked runner (<= 0: snn.DefaultBlockSize)")
	check := flag.Bool("check", false, "with -fig bench: exit non-zero when a benchmark regresses more than 10% vs its previous entry")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
		// Quick-fidelity timings are not comparable to full-fidelity ones,
		// so never merge them into the committed BENCH_RESULTS.json unless
		// the caller picked the file explicitly.
		jsonExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "json" {
				jsonExplicit = true
			}
		})
		if !jsonExplicit {
			*jsonPath = "BENCH_RESULTS.quick.json"
		}
		faultExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "faultjson" {
				faultExplicit = true
			}
		})
		if !faultExplicit {
			*faultJSON = "FAULT_RESULTS.quick.json"
		}
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.BlockSize = *blockSize
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("fig %s: %v", name, err)
		}
	}
	run("8", func() error {
		a, b := experiments.Fig8()
		a.Render(out)
		fmt.Fprintln(out)
		b.Render(out)
		fmt.Fprintln(out)
		return nil
	})
	run("9", func() error {
		a, b := experiments.Fig9()
		a.Render(out)
		fmt.Fprintln(out)
		b.Render(out)
		fmt.Fprintln(out)
		return nil
	})
	run("10", func() error {
		_, t, err := experiments.Fig10(cfg)
		if err != nil {
			return err
		}
		t.Render(out)
		fmt.Fprintln(out)
		return nil
	})
	run("11", func() error {
		r, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			t.Render(out)
			fmt.Fprintln(out)
		}
		for _, t := range r.NormalizedTables() {
			t.Render(out)
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "CNN avg: %.0fx energy, %.0fx speedup (paper: 12x, 60x)\n", r.CNNAvgGain, r.CNNAvgSpeedup)
		fmt.Fprintf(out, "MLP avg: %.0fx energy, %.0fx speedup (paper: 513x, 382x)\n\n", r.MLPAvgGain, r.MLPAvgSpeedup)
		return nil
	})
	run("12", func() error {
		r, err := experiments.Fig12(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			t.Render(out)
			fmt.Fprintln(out)
		}
		for _, t := range r.NormalizedTables() {
			t.Render(out)
			fmt.Fprintln(out)
		}
		return nil
	})
	run("13", func() error {
		r, err := experiments.Fig13(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			t.Render(out)
			fmt.Fprintln(out)
		}
		return nil
	})
	run("14a", func() error {
		fc := experiments.DefaultFig14a()
		if *quick {
			fc.TrainSamples, fc.TestSamples, fc.Epochs, fc.Steps = 300, 50, 6, 60
		}
		_, t, err := experiments.Fig14a(fc)
		if err != nil {
			return err
		}
		t.Render(out)
		fmt.Fprintln(out)
		return nil
	})
	run("14b", func() error {
		_, t, err := experiments.Fig14b(cfg)
		if err != nil {
			return err
		}
		t.Render(out)
		fmt.Fprintln(out)
		return nil
	})
	// The checklist re-runs every driver, so it only fires when asked for
	// explicitly (not under -fig all).
	if *fig == "checklist" {
		_, t, err := experiments.Checklist(cfg)
		if err != nil {
			log.Fatalf("checklist: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
	}
	// The pipeline benchmark suite is explicit-only (testing.Benchmark runs
	// each measurement for about a second); it also writes BENCH_RESULTS.json.
	if *fig == "bench" {
		entries, t, err := experiments.PerfSuite(cfg)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		// Merge into the existing history (matching names are replaced) and
		// report the deltas against the previous measurements.
		prev, err := perf.ReadBenchFile(*jsonPath)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		if dt := benchDeltaTable(prev.Entries, entries); dt != nil {
			dt.Render(out)
			fmt.Fprintln(out)
		}
		merged := perf.MergeEntries(prev.Entries, entries)
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := perf.WriteBenchJSON(f, perf.NewBenchReport(merged)); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "bench results written to %s\n", *jsonPath)
		if *check {
			if regs := benchRegressions(prev.Entries, entries, 0.10); len(regs) > 0 {
				for _, r := range regs {
					log.Print(r)
				}
				log.Fatalf("bench: %d benchmark(s) regressed more than 10%% vs the previous %s (set ALLOW_BENCH_REGRESS=1 to bypass in CI)", len(regs), *jsonPath)
			}
		}
	}
	// The multi-chip pipeline sweep is explicit-only (it simulates three
	// benchmarks twice). Its entries are modeled, not wall-clock, so the same
	// -seed reproduces them bit-identically; merging preserves the existing
	// file's header (timestamp, git revision) so a same-seed rerun leaves
	// BENCH_RESULTS.json byte-identical.
	if *fig == "shard" {
		entries, t, err := experiments.FigShard(cfg)
		if err != nil {
			log.Fatalf("shard: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		prev, err := perf.ReadBenchFile(*jsonPath)
		if err != nil {
			log.Fatalf("shard: %v", err)
		}
		rep := perf.NewBenchReport(perf.MergeEntries(prev.Entries, entries))
		if prev.Timestamp != "" {
			rep.Timestamp = prev.Timestamp
			rep.GitRevision = prev.GitRevision
			rep.GoVersion = prev.GoVersion
			rep.GOMAXPROCS = prev.GOMAXPROCS
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := perf.WriteBenchJSON(f, rep); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "shard results merged into %s\n", *jsonPath)
	}
	// The fleet-serving scenario is explicit-only. Like the shard sweep its
	// rows are modeled (virtual-time discrete-event fleet, see
	// internal/loadgen), so the same -seed reproduces them bit-identically
	// and merging preserves the existing file's header.
	if *fig == "fleet" {
		entries, t, err := experiments.FigFleet(cfg)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		prev, err := perf.ReadBenchFile(*jsonPath)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if dt := fleetDeltaTable(prev.Entries, entries); dt != nil {
			dt.Render(out)
			fmt.Fprintln(out)
		}
		rep := perf.NewBenchReport(perf.MergeEntries(prev.Entries, entries))
		if prev.Timestamp != "" {
			rep.Timestamp = prev.Timestamp
			rep.GitRevision = prev.GitRevision
			rep.GoVersion = prev.GoVersion
			rep.GOMAXPROCS = prev.GOMAXPROCS
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := perf.WriteBenchJSON(f, rep); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "fleet results merged into %s\n", *jsonPath)
	}
	// The event-engine comparison is explicit-only (it simulates every
	// benchmark under both accounting paths and times the simulator itself
	// with testing.Benchmark). Its modeled rows (event/latency, event/shard,
	// event/noc) are pure functions of the -seed; only the event/walltime rows
	// carry real time. Merging preserves the existing file's header.
	if *fig == "event" {
		entries, t, err := experiments.FigEvent(cfg)
		if err != nil {
			log.Fatalf("event: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		prev, err := perf.ReadBenchFile(*jsonPath)
		if err != nil {
			log.Fatalf("event: %v", err)
		}
		if dt := eventDeltaTable(prev.Entries, entries); dt != nil {
			dt.Render(out)
			fmt.Fprintln(out)
		}
		rep := perf.NewBenchReport(perf.MergeEntries(prev.Entries, entries))
		if prev.Timestamp != "" {
			rep.Timestamp = prev.Timestamp
			rep.GitRevision = prev.GitRevision
			rep.GoVersion = prev.GoVersion
			rep.GOMAXPROCS = prev.GOMAXPROCS
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := perf.WriteBenchJSON(f, rep); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "event results merged into %s\n", *jsonPath)
	}
	// The mapper-quality comparison is explicit-only (it anneals and
	// re-simulates every benchmark twice). Its rows are pure functions of the
	// -seed: the placements are deterministic and the measured energy/EDP come
	// from the modeled accountant, not wall-clock. Merging preserves the
	// existing file's header, so same-seed reruns keep BENCH_RESULTS.json
	// byte-identical.
	if *fig == "mapper" {
		entries, t, err := experiments.FigMapper(cfg)
		if err != nil {
			log.Fatalf("mapper: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		prev, err := perf.ReadBenchFile(*jsonPath)
		if err != nil {
			log.Fatalf("mapper: %v", err)
		}
		if dt := mapperDeltaTable(prev.Entries, entries); dt != nil {
			dt.Render(out)
			fmt.Fprintln(out)
		}
		rep := perf.NewBenchReport(perf.MergeEntries(prev.Entries, entries))
		if prev.Timestamp != "" {
			rep.Timestamp = prev.Timestamp
			rep.GitRevision = prev.GitRevision
			rep.GoVersion = prev.GoVersion
			rep.GOMAXPROCS = prev.GOMAXPROCS
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := perf.WriteBenchJSON(f, rep); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "mapper results merged into %s\n", *jsonPath)
	}
	// The accuracy-under-fault sweep is explicit-only (it re-simulates every
	// benchmark 13 times); it merges its rows into the machine-readable
	// FAULT_RESULTS.json header-preservingly. The rows contain no timestamps
	// or host state: the same -seed reproduces a committed file
	// byte-identically.
	if *fig == "faults" {
		fc := experiments.DefaultFaultsConfig()
		if *quick {
			fc = experiments.QuickFaultsConfig()
		}
		// Steps and Samples stay the sweep's own (the agreement metric needs
		// enough timesteps for output spikes); everything else follows the
		// shared flags.
		fc.Seed = *seed
		fc.Workers = *workers
		fc.BlockSize = *blockSize
		r, t, err := experiments.FigFaults(fc)
		if err != nil {
			log.Fatalf("faults: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		fresh := experiments.NewFaultReport()
		fresh.Faults = r
		mergeFaultJSON(*faultJSON, fresh)
		fmt.Fprintf(out, "fault sweep merged into %s\n", *faultJSON)
	}
	// The accuracy-over-lifetime campaign (-fig lifetime) ages every
	// benchmark to end of life under the self-healing policies and merges
	// its rows into the same FAULT_RESULTS.json.
	if *fig == "lifetime" {
		lc := experiments.DefaultLifetimeConfig()
		if *quick {
			lc = experiments.QuickLifetimeConfig()
		}
		lc.Seed = *seed
		lc.Workers = *workers
		lc.BlockSize = *blockSize
		r, t, err := experiments.FigLifetime(lc)
		if err != nil {
			log.Fatalf("lifetime: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
		if rt := lifetimeRecoveryTable(r); rt != nil {
			rt.Render(out)
			fmt.Fprintln(out)
		}
		fresh := experiments.NewFaultReport()
		fresh.Lifetime = r
		mergeFaultJSON(*faultJSON, fresh)
		fmt.Fprintf(out, "lifetime campaign merged into %s\n", *faultJSON)
	}
	// Calibration sensitivity is explicit-only too (21 paired simulations).
	if *fig == "sensitivity" {
		_, t, err := experiments.Sensitivity(cfg, 1.5)
		if err != nil {
			log.Fatalf("sensitivity: %v", err)
		}
		t.Render(out)
		fmt.Fprintln(out)
	}
	run("ablations", func() error {
		if _, t, err := experiments.AblationPacketWidth(cfg); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		isCfg := cfg
		if isCfg.Steps > 16 {
			isCfg.Steps = 16 // the naive mapping is slow to simulate
		}
		if _, t, err := experiments.AblationInputSharing(isCfg); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		if _, t, err := experiments.AblationSwitchContention(cfg.Seed); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		if _, t, err := experiments.AblationColumnGating(isCfg); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		if _, t, err := experiments.AblationEarlyExit(isCfg); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		if _, t, err := experiments.AblationNonIdealityAccuracy(400, 60, 80, cfg.Seed); err != nil {
			return err
		} else {
			t.Render(out)
			fmt.Fprintln(out)
		}
		return nil
	})
}

// benchRegressions lists the fresh entries whose fastest sample runs more
// than tol slower (by ns/op) than the previous entry's median. Machine noise
// only slows samples down, so one slow sample cannot fail the gate, while a
// real regression slows every sample, the fastest included. Entries without
// a previous measurement never regress; entries without a fastest sample
// compare their ns/op.
func benchRegressions(prev, fresh []perf.BenchEntry, tol float64) []string {
	var regs []string
	for _, e := range fresh {
		old, ok := perf.FindEntry(prev, e.Name)
		ns := e.NsPerOpMin
		if ns <= 0 {
			ns = e.NsPerOp
		}
		if !ok || old.NsPerOp <= 0 || ns <= 0 {
			continue
		}
		if ns > old.NsPerOp*(1+tol) {
			regs = append(regs, fmt.Sprintf("regression: %s %.0f -> %.0f ns/op fastest sample (%.1f%% slower)",
				e.Name, old.NsPerOp, ns, 100*(ns/old.NsPerOp-1)))
		}
	}
	return regs
}

// benchDeltaTable compares fresh measurements against the previous entries
// of the same name and renders the throughput ratios; nil when no previous
// measurement overlaps (first run).
func benchDeltaTable(prev, fresh []perf.BenchEntry) *report.Table {
	t := report.NewTable("Delta vs previous BENCH_RESULTS.json",
		"Benchmark", "prev ns/op", "new ns/op", "speedup")
	rows := 0
	for _, e := range fresh {
		old, ok := perf.FindEntry(prev, e.Name)
		if !ok {
			continue
		}
		t.Add(e.Name, fmt.Sprintf("%.0f", old.NsPerOp), fmt.Sprintf("%.0f", e.NsPerOp),
			fmt.Sprintf("%.2fx", perf.Speedup(old, e)))
		rows++
	}
	if rows == 0 {
		return nil
	}
	return t
}

// mergeFaultJSON merges a fresh fault/lifetime report into the results file
// header-preservingly and writes it back.
func mergeFaultJSON(path string, fresh experiments.FaultReport) {
	prev, err := experiments.ReadFaultFile(path)
	if err != nil {
		log.Fatalf("fault JSON: %v", err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.WriteFaultJSON(f, experiments.MergeFaultReports(prev, fresh)); err != nil {
		f.Close()
		log.Fatalf("fault JSON: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// lifetimeRecoveryTable summarizes, per benchmark, the agreement the
// no-repair baseline loses by end of life and the fraction each repair
// policy recovers; nil when no benchmark lost anything.
func lifetimeRecoveryTable(r *experiments.LifetimeResult) *report.Table {
	t := report.NewTable("Lifetime recovery (fraction of EOL agreement loss recovered)",
		"Benchmark", "Lost", "Refresh", "Full")
	seen := map[string]bool{}
	rows := 0
	for _, p := range r.Points {
		if seen[p.Bench] {
			continue
		}
		seen[p.Bench] = true
		lost, fullFrac, ok := r.RecoveredAt(p.Bench, repair.PolicyFull.String())
		if !ok {
			t.Add(p.Bench, "0.000", "-", "-")
			continue
		}
		_, refreshFrac, _ := r.RecoveredAt(p.Bench, repair.PolicyRefresh.String())
		t.Add(p.Bench, fmt.Sprintf("%.3f", lost),
			fmt.Sprintf("%.0f%%", 100*refreshFrac), fmt.Sprintf("%.0f%%", 100*fullFrac))
		rows++
	}
	if rows == 0 {
		return nil
	}
	return t
}

// eventDeltaTable compares fresh event-engine rows against the previous
// entries of the same name; nil when no previous event row overlaps. The
// comparison is informational (warn-only): modeled cycles shift only when the
// model changes, which is exactly what the delta surfaces.
func eventDeltaTable(prev, fresh []perf.BenchEntry) *report.Table {
	t := report.NewTable("Event-engine delta vs previous BENCH_RESULTS.json",
		"Row", "prev cycles", "new cycles", "prev wait", "new wait")
	rows := 0
	for _, e := range fresh {
		old, ok := perf.FindEntry(prev, e.Name)
		if !ok || old.ModelCycles == 0 {
			continue
		}
		t.Add(e.Name, fmt.Sprintf("%d", old.ModelCycles), fmt.Sprintf("%d", e.ModelCycles),
			fmt.Sprintf("%d", old.WaitCycles), fmt.Sprintf("%d", e.WaitCycles))
		rows++
	}
	if rows == 0 {
		return nil
	}
	return t
}

// mapperDeltaTable compares fresh mapper-quality rows against the previous
// entries of the same name; nil when no previous mapper row overlaps. The
// comparison is informational (warn-only): EDP shifts when the cost model or
// the annealer changes, which is exactly what the delta surfaces.
func mapperDeltaTable(prev, fresh []perf.BenchEntry) *report.Table {
	t := report.NewTable("Mapper-quality delta vs previous BENCH_RESULTS.json",
		"Row", "prev EDP", "new EDP", "prev energy J", "new energy J")
	rows := 0
	for _, e := range fresh {
		old, ok := perf.FindEntry(prev, e.Name)
		if !ok || old.Objective == 0 {
			continue
		}
		t.Add(e.Name, report.Sci(old.Objective), report.Sci(e.Objective),
			report.Sci(old.EnergyJ), report.Sci(e.EnergyJ))
		rows++
	}
	if rows == 0 {
		return nil
	}
	return t
}

// fleetDeltaTable compares fresh fleet SLO rows against the previous
// entries of the same name; nil when no previous fleet row overlaps. The
// comparison is informational (warn-only): SLO attainment shifts with the
// scenario, so CI reports the delta without failing on it.
func fleetDeltaTable(prev, fresh []perf.BenchEntry) *report.Table {
	t := report.NewTable("Fleet SLO delta vs previous BENCH_RESULTS.json",
		"Row", "prev p99 ms", "new p99 ms", "prev attainment", "new attainment")
	rows := 0
	for _, e := range fresh {
		old, ok := perf.FindEntry(prev, e.Name)
		if !ok || !old.IsFleet() {
			continue
		}
		t.Add(e.Name, fmt.Sprintf("%.1f", old.P99Ms), fmt.Sprintf("%.1f", e.P99Ms),
			fmt.Sprintf("%.3f", old.SLOAttainment), fmt.Sprintf("%.3f", e.SLOAttainment))
		rows++
	}
	if rows == 0 {
		return nil
	}
	return t
}
