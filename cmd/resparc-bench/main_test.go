package main

import (
	"strings"
	"testing"

	"resparc/internal/perf"
)

// The bench gate compares the fastest fresh sample with the previous
// median: an outlier that drags the median up passes, a slowdown that moves
// every sample fails, and rows from files without a fastest sample fall back
// to ns/op.
func TestBenchRegressionsUseFastestSample(t *testing.T) {
	prev := []perf.BenchEntry{
		{Name: "outlier", NsPerOp: 100},
		{Name: "uniform", NsPerOp: 100},
		{Name: "legacy", NsPerOp: 100},
	}
	fresh := []perf.BenchEntry{
		{Name: "outlier", NsPerOp: 164, NsPerOpMin: 103},
		{Name: "uniform", NsPerOp: 130, NsPerOpMin: 125},
		{Name: "legacy", NsPerOp: 120},
		{Name: "new", NsPerOp: 500, NsPerOpMin: 400},
	}
	regs := benchRegressions(prev, fresh, 0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions %q, want uniform and legacy only", regs)
	}
	for i, name := range []string{"uniform", "legacy"} {
		if !strings.HasPrefix(regs[i], "regression: "+name+" ") {
			t.Fatalf("regression %d = %q, want %s", i, regs[i], name)
		}
	}
}
