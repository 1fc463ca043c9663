package experiments

import (
	"testing"
	"time"
)

// A row's ns/op is the median of its samples and ns_per_op_min the fastest,
// so one slow outlier moves neither; allocations come from the median
// sample.
func TestBenchEntryFoldsSamples(t *testing.T) {
	sample := func(ms int, allocs uint64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 10, T: time.Duration(10*ms) * time.Millisecond, MemAllocs: 10 * allocs}
	}
	samples := []testing.BenchmarkResult{sample(9, 3), sample(30, 5), sample(10, 4)}
	e := benchEntry("x", samples, 4, 2)
	if e.NsPerOp != 10e6 || e.NsPerOpMin != 9e6 {
		t.Fatalf("ns/op %v min %v, want median 1e7 and fastest 9e6", e.NsPerOp, e.NsPerOpMin)
	}
	if e.AllocsPerOp != 4 || e.Iterations != 10 || e.Workers != 2 || e.ImagesPerSec != 400 {
		t.Fatalf("entry %+v does not come from the median sample", e)
	}
}
