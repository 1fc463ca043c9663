package experiments

import (
	"fmt"
	"sort"
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
// regenerating the paper's figures. Every row is sampled benchSamples
// times and records the median and the fastest sample.
func PerfSuite(cfg Config) ([]perf.BenchEntry, *report.Table, error) {
	var entries []perf.BenchEntry

	addEval := func(name string, net *snn.Network, inputs []tensor.Vec, workers int, label string, opt snn.Options) error {
		enc := cfg.encoders()
		opt.Workers = workers
		e, err := measure(fmt.Sprintf("eval/%s/%s", name, label), len(inputs), workers, func() error {
			_, err := snn.RunBatch(net, inputs, enc, cfg.Steps, opt)
			return err
		})
		if err != nil {
			return err
		}
		entries = append(entries, e)
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

	// The blocked functional runner on the largest dense benchmark
	// (cifar-mlp), single worker: the layer-major temporal-blocking cost of
	// snn.State.RunBlockedK without pool scaling.
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
		e, err := measure("chip/mnist-mlp/"+w.label, len(inputs), w.workers, func() error {
			_, _, err := chip.ClassifyBatch(inputs, cfg.encoders(), sim.Options{Workers: w.workers})
			return err
		})
		if err != nil {
			return nil, nil, fmtErr("perfsuite", err)
		}
		entries = append(entries, e)
	}

	t := report.NewTable("Evaluation pipeline benchmarks",
		"Benchmark", "Workers", "ns/op", "min ns/op", "images/sec", "allocs/op", "B/op")
	for _, e := range entries {
		t.Add(e.Name, fmt.Sprintf("%d", e.Workers), fmt.Sprintf("%.0f", e.NsPerOp), fmt.Sprintf("%.0f", e.NsPerOpMin),
			fmt.Sprintf("%.1f", e.ImagesPerSec), fmt.Sprintf("%d", e.AllocsPerOp),
			fmt.Sprintf("%d", e.BytesPerOp))
	}
	return entries, t, nil
}

// benchSamples is how many times PerfSuite measures each row. A row's
// ns_per_op is the median sample and its ns_per_op_min the fastest, which
// the regression gate compares: machine noise only ever slows a sample down.
const benchSamples = 3

// measure times op (one op = one full batch of images) benchSamples times
// with testing.Benchmark and folds the samples into one entry.
func measure(name string, images, workers int, op func() error) (perf.BenchEntry, error) {
	samples := make([]testing.BenchmarkResult, benchSamples)
	for s := range samples {
		var runErr error
		samples[s] = testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := op(); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
		})
		if runErr != nil {
			return perf.BenchEntry{}, runErr
		}
	}
	return benchEntry(name, samples, images, workers), nil
}

// benchEntry converts repeated samples of one benchmark into the JSON form:
// the median sample supplies ns/op, images/sec, allocations and iterations,
// the fastest sample ns_per_op_min. It sorts samples in place.
func benchEntry(name string, samples []testing.BenchmarkResult, images, workers int) perf.BenchEntry {
	sort.Slice(samples, func(i, j int) bool { return samples[i].NsPerOp() < samples[j].NsPerOp() })
	r := samples[len(samples)/2]
	ns := float64(r.NsPerOp())
	ips := 0.0
	if ns > 0 {
		ips = float64(images) / (ns * 1e-9)
	}
	return perf.BenchEntry{
		Name:         name,
		NsPerOp:      ns,
		NsPerOpMin:   float64(samples[0].NsPerOp()),
		ImagesPerSec: ips,
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		Iterations:   r.N,
		Workers:      workers,
	}
}
