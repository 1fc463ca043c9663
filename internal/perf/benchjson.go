package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BenchSchemaVersion is the current BENCH_RESULTS.json schema. Version 2
// added the schema_version and git_revision stamps; version 3 added the
// fleet serving fields (latency quantiles, SLO attainment, shed/error
// counts); version 4 added the event-engine fields (modeled cycles, queuing
// waits, spike sparsity); version 5 added the mapper-quality fields (modeled
// energy and placement objective, written by -fig mapper); version 1
// documents (no schema_version field) decode as version 1.
const BenchSchemaVersion = 5

// BenchEntry is one benchmark measurement in machine-readable form — the
// unit of BENCH_RESULTS.json, which tracks the repo's performance
// trajectory across PRs.
//
// The fleet serving rows (-fig fleet) additionally carry latency quantiles
// and SLO attainment; those fields stay zero (and are omitted from the
// JSON) on ordinary throughput rows.
type BenchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpMin is the fastest of the repeated samples behind a wall-clock
	// row (NsPerOp is their median). Files written before rows were sampled
	// repeatedly omit it.
	NsPerOpMin   float64 `json:"ns_per_op_min,omitempty"`
	ImagesPerSec float64 `json:"images_per_sec,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	Iterations   int     `json:"iterations"`
	Workers      int     `json:"workers,omitempty"`

	// Fleet serving fields (schema v3). Latencies are virtual milliseconds
	// from the modeled fleet simulation, so the same seed reproduces them
	// byte-identically.
	P50Ms         float64 `json:"p50_ms,omitempty"`
	P99Ms         float64 `json:"p99_ms,omitempty"`
	P999Ms        float64 `json:"p999_ms,omitempty"`
	SLOTargetMs   float64 `json:"slo_target_ms,omitempty"`
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
	Shed          int64   `json:"shed,omitempty"`
	Errors        int64   `json:"errors,omitempty"`

	// Event-engine fields (schema v4), written by -fig event. ModelCycles is
	// the modeled cycle count (pipeline makespan, or NoC delivery span for
	// event/noc rows), WaitCycles the queuing it contains (bus/link/fabric
	// backpressure), and SpikesPerStep the average output-spike count per
	// timestep — the sparsity that makes event-driven simulation pay. All are
	// modeled quantities: the same seed reproduces them bit-identically.
	ModelCycles   int64   `json:"model_cycles,omitempty"`
	WaitCycles    int64   `json:"wait_cycles,omitempty"`
	SpikesPerStep float64 `json:"spikes_per_step,omitempty"`

	// Mapper-quality fields (schema v5), written by -fig mapper. EnergyJ is
	// the measured energy per classification under the placement, Objective
	// the energy-delay product (J·s) the mapper minimized a weighted proxy
	// of. Deterministic for a fixed seed.
	EnergyJ   float64 `json:"energy_j,omitempty"`
	Objective float64 `json:"objective,omitempty"`
}

// IsFleet reports whether the entry is a fleet serving row (carries an SLO
// target), so tools can diff the SLO columns only where they exist.
func (e BenchEntry) IsFleet() bool { return e.SLOTargetMs > 0 }

// BenchReport is the top-level BENCH_RESULTS.json document. Every report is
// self-describing: schema version, measurement timestamp and the git
// revision it was taken at, so the perf trajectory across PRs can be
// reconstructed from the files alone.
type BenchReport struct {
	SchemaVersion int          `json:"schema_version"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Timestamp     string       `json:"timestamp"`
	GitRevision   string       `json:"git_revision,omitempty"`
	Entries       []BenchEntry `json:"benchmarks"`
}

// NewBenchReport stamps a report with the schema version and the runtime
// environment (Go version, GOMAXPROCS, UTC timestamp, git revision).
func NewBenchReport(entries []BenchEntry) BenchReport {
	return BenchReport{
		SchemaVersion: BenchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GitRevision:   GitRevision(),
		Entries:       entries,
	}
}

// GitRevision returns the short hash of the current HEAD, or "" when the
// working directory is not a git checkout (or git is unavailable) — reports
// written outside a checkout simply omit the stamp.
func GitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// WriteBenchJSON writes the report as indented JSON.
func WriteBenchJSON(w io.Writer, r BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("perf: writing bench JSON: %w", err)
	}
	return nil
}

// ReadBenchJSON decodes a report written by WriteBenchJSON. Version-1
// documents (no schema_version field) are accepted and normalized to
// version 1; versions newer than BenchSchemaVersion are rejected.
func ReadBenchJSON(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return BenchReport{}, fmt.Errorf("perf: reading bench JSON: %w", err)
	}
	if rep.SchemaVersion == 0 {
		rep.SchemaVersion = 1
	}
	if rep.SchemaVersion > BenchSchemaVersion {
		return BenchReport{}, fmt.Errorf("perf: bench JSON schema %d newer than supported %d", rep.SchemaVersion, BenchSchemaVersion)
	}
	return rep, nil
}

// ReadBenchFile loads BENCH_RESULTS.json from disk. A missing file is not
// an error: it returns an empty report, so callers can merge fresh entries
// into whatever history exists.
func ReadBenchFile(path string) (BenchReport, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return BenchReport{SchemaVersion: BenchSchemaVersion}, nil
	}
	if err != nil {
		return BenchReport{}, fmt.Errorf("perf: opening %s: %w", path, err)
	}
	defer f.Close()
	return ReadBenchJSON(f)
}

// MergeEntries overlays fresh measurements onto existing ones: entries with
// a matching name are replaced in place (the measurement was redone), new
// names append in order. The existing slice is not mutated.
func MergeEntries(existing, fresh []BenchEntry) []BenchEntry {
	out := append([]BenchEntry(nil), existing...)
	index := make(map[string]int, len(out))
	for i, e := range out {
		index[e.Name] = i
	}
	for _, e := range fresh {
		if i, ok := index[e.Name]; ok {
			out[i] = e
		} else {
			index[e.Name] = len(out)
			out = append(out, e)
		}
	}
	return out
}

// FindEntry returns the entry with the given name, if present.
func FindEntry(entries []BenchEntry, name string) (BenchEntry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return BenchEntry{}, false
}

// Speedup returns the throughput ratio between two entries (how many times
// faster b runs than a), or 0 if either is unmeasured.
func Speedup(a, b BenchEntry) float64 {
	if a.NsPerOp <= 0 || b.NsPerOp <= 0 {
		return 0
	}
	return a.NsPerOp / b.NsPerOp
}
