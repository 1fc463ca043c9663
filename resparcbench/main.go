// Command resparcbench is the repository benchmark: three workloads that drive
// the RESPARC simulator and its serving tier through their public entry
// points, print every named metric with its unit, and check every output.
//
//	go run . --workload sweep-mlp|sweep-cnn|serve-mix --seed N --seconds S --trace 0|1
//
// Workloads:
//
//   - sweep-mlp: closed-loop offline Fig 11 sweep over mnist-, svhn- and
//     cifar-mlp on the resparc, cmos and annealed resparc-x4 backends.
//   - sweep-cnn: the same sweep over the three CNNs.
//   - serve-mix: open-loop /v1/classify traffic into one lb.LB in front of two
//     serve.Server replicas (mnist-mlp and mnist-cnn) at two fixed rates.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 a separately traced run carries the per-layer metrics, writes its
// spans as Chrome trace-event JSON and checks that the sweep's per-layer self
// times add back up to the wall time. README.md defines every metric.
//
// The seed drives image choice, encoder forks and the arrival trace; network
// weights stay at the Fig 10 seed 1 and every component runs at its defaults.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload reports
// every one of them (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_img_per_s", "img/s"},
	{"peak_rss_mb", "MB"},
	{"energy_uj", "uJ"},
	{"latency_us", "us"},
	{"energy_gain_x", "x"},
	{"speedup_x", "x"},
	{"x4_edp", "uJ.us"},
	{"lat_ms_p50_high", "ms"},
	{"slo_attain_high", "frac"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports zero work.
var perLayer = []metricDef{
	{"bench.build_ms", "ms"},
	{"mapping.map_ms", "ms"},
	{"mapping.plan_ms", "ms"},
	{"backend.new_ms", "ms"},
	{"serve.registry_ms", "ms"},
	{"lb.ready_ms", "ms"},
	{"snn.run_ms_per_img", "ms"},
	{"core.account_ms_per_img", "ms"},
	{"core.classify_ms_per_img", "ms"},
	{"core.classify_serial_ms_per_img", "ms"},
	{"cmos.classify_ms_per_img", "ms"},
	{"shard.classify_ms_per_img", "ms"},
	{"sim.parallel_eff", "frac"},
	{"core.cycles.sync", "cycles"},
	{"core.cycles.bus", "cycles"},
	{"core.cycles.delivery", "cycles"},
	{"core.cycles.integrate", "cycles"},
	{"core.cycles.drain", "cycles"},
	{"core.bus_wait_cycles", "cycles"},
	{"core.energy.neuron_uj", "uJ"},
	{"core.energy.crossbar_uj", "uJ"},
	{"core.energy.peripherals_uj", "uJ"},
	{"core.suppressed_frac", "frac"},
	{"core.mca_activations", "count"},
	{"core.spikes_per_step", "count"},
	{"cmos.energy_uj", "uJ"},
	{"shard.link_wait_cycles", "cycles"},
	{"shard.flits_sent", "count"},
	{"shard.link_energy_uj", "uJ"},
	{"shard.interval_us", "us"},
	{"lb.overhead_ms_p50", "ms"},
	{"lb.overhead_ms_p99", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.exec_ms_p99", "ms"},
	{"lb.rejected", "count"},
	{"lb.retries", "count"},
	{"lb.shed", "count"},
	{"serve.queue_full", "count"},
	{"serve.timeouts", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"lat_ms_p50_low", "ms"},
	{"lat_ms_p99_low", "ms"},
	{"lat_ms_p99_high", "ms"},
	{"host.ref_ms", "ms"},
	{"fail_frac", "frac"},
	{"trace.sum_err", "frac"},
}

// modeledMetrics are pure functions of the seed: two runs with the same seed
// must report them bit-identically.
var modeledMetrics = []string{"energy_uj", "latency_us", "energy_gain_x", "speedup_x", "x4_edp"}

// config is one invocation.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Tiny shrinks every workload to a smoke size: one image per network and
	// a few dozen requests (the self-test's size).
	Tiny   bool   `json:"tiny"`
	OutDir string `json:"-"`
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// valid is false when the run cannot be trusted (generator lag beyond
	// its bound); the reason is in notes.
	valid bool
	notes map[string]any
	spans []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, valid: true, notes: map[string]any{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"sweep-mlp": func(c config) (*outcome, error) { return runSweep(c, mlpFamily) },
	"sweep-cnn": func(c config) (*outcome, error) { return runSweep(c, cnnFamily) },
	"serve-mix": runServeMix,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: sweep-mlp, sweep-cnn or serve-mix")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed (image choice, encoder forks, arrival trace)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.BoolVar(&cfg.Tiny, "tiny", false, "smoke size: one image per network, a few dozen requests")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build/results", "directory for result files and traces")
	flag.Parse()
	cfg.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", trace)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "resparcbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload, writes its result file (and trace) under
// cfg.OutDir, and prints the environment line and the contract line to out.
func run(cfg config, out io.Writer) (result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want sweep-mlp, sweep-cnn or serve-mix)", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %v", cfg.Seconds)
	}
	env := environment(cfg)
	o, err := fn(cfg)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if o.attempted > 0 {
		o.layer["fail_frac"] = float64(o.failed) / float64(o.attempted)
	}

	defs := endToEnd
	values := o.e2e
	if cfg.Trace {
		defs, values = perLayer, o.layer
	}
	res := result{
		Correct:   o.failed == 0 && o.valid && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   withUnits(defs, values),
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating %s: %w", cfg.OutDir, err)
	}
	stem := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, b2i(cfg.Trace)))
	if cfg.Trace {
		if err := writeChromeTrace(stem+".trace.json", o.spans); err != nil {
			return result{}, err
		}
		o.notes["trace_file"] = stem + ".trace.json"
		o.notes["tracing_overhead"] = tracingOverhead(cfg, o.e2e)
	}
	record := map[string]any{
		"env": env, "result": res, "notes": o.notes,
		"end_to_end": withUnits(endToEnd, o.e2e), "per_layer": withUnits(perLayer, o.layer),
	}
	if err := writeJSON(stem+".json", record); err != nil {
		return result{}, err
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n%s\n", envLine, line)
	if !o.valid {
		fmt.Fprintf(os.Stderr, "resparcbench: run invalid: %v\n", o.notes["invalid"])
	}
	return res, nil
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// tracingOverhead compares this traced run's end-to-end numbers with the
// untraced result file of the same workload and seed, when one exists:
// traced minus untraced, per metric.
func tracingOverhead(cfg config, traced map[string]float64) any {
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-trace0.json", cfg.Workload, cfg.Seed))
	data, err := os.ReadFile(path)
	if err != nil {
		return "no untraced result for this workload and seed in " + cfg.OutDir
	}
	var rec struct {
		EndToEnd map[string]metricValue `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Sprintf("unreadable untraced result %s: %v", path, err)
	}
	delta := make(map[string]float64)
	for _, d := range endToEnd {
		if u, ok := rec.EndToEnd[d.Name]; ok {
			delta[d.Name] = traced[d.Name] - u.Value
		}
	}
	return map[string]any{"untraced_file": path, "traced_minus_untraced": delta}
}

// environment records what the numbers depend on besides the code.
func environment(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_rev":    gitRevision(),
		"src_sha256": sourceHash("."),
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"tiny":       cfg.Tiny,
		"start_utc":  time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRevision is HEAD's commit, or "unknown" outside a git checkout (the
// source hash then identifies the code).
func gitRevision() string {
	outb, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

// sourceHash digests every Go source and go.mod under the module root that
// contains dir (the checkout root when run by run.sh), skipping dot
// directories such as the build output.
func sourceHash(dir string) string {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
