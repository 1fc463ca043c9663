package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// against: the workloads and every metric's name and unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// runTiny runs a workload at smoke size and returns the printed result line.
func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	cfg := config{Workload: workload, Seed: 3, Seconds: 1, Trace: trace, Tiny: true, OutDir: t.TempDir()}
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w.Name, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestModeledMetricsRepeat(t *testing.T) {
	for name := range workloads {
		a := runTiny(t, name, false)
		b := runTiny(t, name, false)
		for _, m := range modeledMetrics {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between same-seed runs: %v vs %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}
