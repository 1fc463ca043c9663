package experiments

import (
	"fmt"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/core"
	"resparc/internal/mapping"
	"resparc/internal/parallel"
	"resparc/internal/perf"
	"resparc/internal/report"
	"resparc/internal/sim"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// PerfSuite measures the evaluation pipeline's hot paths with
// testing.Benchmark and returns machine-readable entries (the content of
// BENCH_RESULTS.json) plus a rendered table. It covers the functional SNN
// evaluator and the full RESPARC chip simulation, each at one worker
// (the serial reference) and at the configured pool size, so the JSON
// records both the single-thread cost and the parallel scaling of
// regenerating the paper's figures.
func PerfSuite(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry

	addEval := func(name string, net *snn.Network, inputs []tensor.Vec, workers int, label string, opt snn.Options) error {
		enc := cfg.encoders()
		opt.Workers = workers
		var runErr error
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := snn.RunBatch(net, inputs, enc, cfg.Steps, opt); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
		})
		if runErr != nil {
			return runErr
		}
		entries = append(entries, benchEntry(fmt.Sprintf("eval/%s/%s", name, label), res, len(inputs), workers))
		return nil
	}

	for _, name := range []string{"mnist-mlp", "mnist-cnn", "cifar-cnn"} {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if err := addEval(name, net, inputs, 1, "serial", snn.Options{}); err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if name != "cifar-cnn" {
			pool := parallel.Clamp(cfg.Workers, len(inputs))
			if err := addEval(name, net, inputs, pool, "parallel", snn.Options{}); err != nil {
				return nil, nil, fmtErr("perfsuite", err)
			}
		}
	}

	// Blocked vs stepped functional runner on the largest dense benchmark
	// (cifar-mlp), single worker: the pair isolates the layer-major
	// temporal-blocking speedup of snn.RunBlocked from pool scaling.
	{
		b, err := bench.ByName("cifar-mlp")
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		net, err := b.Build(cfg.Seed)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		inputs, err := inputsFor(b, net, cfg)
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if err := addEval("cifar-mlp", net, inputs, 1, "blocked", snn.Options{}); err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		if err := addEval("cifar-mlp", net, inputs, 1, "stepped", snn.Options{Stepped: true}); err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
	}

	// Full chip simulation (functional sim + event/energy accounting) on the
	// MLP benchmark — the unit of work behind every Fig 11–13 data point.
	b, err := bench.ByName("mnist-mlp")
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	net, err := b.Build(cfg.Seed)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	m, err := mapping.Map(net, cfg.mapConfig(cfg.MCASize))
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	copt := core.DefaultOptions()
	copt.Params = cfg.Params
	copt.Steps = cfg.Steps
	copt.Stepped = cfg.Stepped
	copt.BlockSize = cfg.BlockSize
	chip, err := core.New(net, m, copt)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	inputs, err := inputsFor(b, net, cfg)
	if err != nil {
		return nil, nil, fmtErr("perfsuite", err)
	}
	pool := parallel.Clamp(cfg.Workers, len(inputs))
	for _, w := range []struct {
		workers int
		label   string
	}{{1, "serial"}, {pool, "parallel"}} {
		var runErr error
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, _, err := chip.ClassifyBatch(inputs, cfg.encoders(), sim.Options{Workers: w.workers}); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
		})
		if runErr != nil {
			return nil, nil, fmtErr("perfsuite", runErr)
		}
		entries = append(entries, benchEntry("chip/mnist-mlp/"+w.label, res, len(inputs), w.workers))
	}

	t := report.NewTable("Evaluation pipeline benchmarks",
		"Benchmark", "Workers", "ns/op", "images/sec", "allocs/op", "B/op")
	for _, e := range entries {
		t.Add(e.Name, fmt.Sprintf("%d", e.Workers), fmt.Sprintf("%.0f", e.NsPerOp),
			fmt.Sprintf("%.1f", e.ImagesPerSec), fmt.Sprintf("%d", e.AllocsPerOp),
			fmt.Sprintf("%d", e.BytesPerOp))
	}
	return entries, t, nil
}

// benchEntry converts a testing.BenchmarkResult (one op = one full batch of
// images) into the JSON form.
func benchEntry(name string, r testing.BenchmarkResult, images, workers int) perf.BenchEntry {
	ns := float64(r.NsPerOp())
	ips := 0.0
	if ns > 0 {
		ips = float64(images) / (ns * 1e-9)
	}
	return perf.BenchEntry{
		Name:         name,
		NsPerOp:      ns,
		ImagesPerSec: ips,
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		Iterations:   r.N,
		Workers:      workers,
	}
}
