// Package sim defines the backend-neutral simulation interface: every
// architecture simulator (the RESPARC chip, the CMOS baseline, the
// multi-chip shard executor) presents the same three entry points —
// Classify, ClassifyEach, ClassifyBatch — behind one Backend interface, so
// the serving layer, the experiment drivers and the command-line tools never
// special-case a backend type.
//
// The batch fan-out is expressed exactly once (Each): worker clamping, the
// chunking of a worker's images into groups, per-worker session state and
// the deterministic per-sample encoder contract live here, and backends
// supply only the closure that classifies one chunk.
// Aggregation stays with the backend (ClassifyBatch), because the reduction
// is architecture-specific: the chip averages energies and sums counters,
// the baseline averages counters and recomputes energy.
package sim

import (
	"fmt"

	"resparc/internal/parallel"
	"resparc/internal/perf"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// EncoderFactory builds a deterministic per-sample encoder — typically
// baseEncoder.ForkSeed(i) — so sample i's spike stream depends only on its
// index, never on worker scheduling. See snn.PoissonEncoder.ForkSeed for the
// determinism contract.
type EncoderFactory func(sample int) snn.Encoder

// Options select how a batch call executes. The zero value is the default:
// the backend's configured runner, one worker per CPU, full-length runs.
type Options struct {
	// Workers is the worker-pool size (<= 0 selects one per CPU). Results
	// are bit-identical for any value; Workers: 1 is the serial reference.
	Workers int
	// BlockSize overrides the blocked runner's temporal block length
	// (<= 0 keeps the backend's configured length, or the early-exit block
	// under EarlyExit; see Run). Results are bit-identical for any value; it
	// only trades raster memory against weight reuse (see snn.RunBlockedK).
	BlockSize int
	// EarlyExit decodes by time-to-first-spike and stops simulating at the
	// first output spike (or after the full step budget if none arrives).
	// Report.Steps records the steps actually executed. The runner
	// integrates a short block of steps at a time, so it may encode a few
	// frames past the exit step; those are never observed, and results are
	// identical to stopping at the exit step because each sample owns its
	// encoder (the EncoderFactory contract). Backends without an early-exit
	// path reject the option with an error.
	EarlyExit bool
	// EventEngine selects the pipelined latency reduction on backends that
	// support it (the RESPARC chip and its sharded executor): the per-stage
	// durations the accountant records on every run are composed by a
	// virtual-time discrete-event engine (pipeline overlap, shared-bus
	// contention) instead of summed serially, the paper's latency.
	// Predictions, energies and event counters are bit-identical either
	// way; only Cycles/Latency and the wait counters change. Backends
	// without a stage grid ignore it.
	EventEngine bool
}

// Report is the backend-neutral outcome of one classification (or, for
// ClassifyBatch, of the batch aggregate, where Predicted is -1).
type Report struct {
	// Predicted is the decoded class (-1 when silent or for aggregates).
	Predicted int
	// Steps is the number of timesteps actually simulated (early exit may
	// stop short of the configured budget).
	Steps int
	// Detail carries the backend's own report type (core.Report,
	// cmosbase.Report, shard.Report) for callers that need breakdowns.
	Detail any
}

// Backend is one simulated architecture instance with a prepared network.
// All three classification entry points are deterministic: the outcome of
// image i depends only on (input, encoder) — never on batch composition,
// worker count or scheduling.
type Backend interface {
	// Name identifies the backend on the wire ("resparc", "cmos",
	// "resparc-x4", ...).
	Name() string
	// Network returns the prepared network.
	Network() *snn.Network
	// Healthy reports whether the backend can currently serve (fault
	// campaigns may degrade a chip below its functional threshold).
	Healthy() error
	// Classify simulates one classification with the backend's configured
	// runner and step budget.
	Classify(input tensor.Vec, enc snn.Encoder) (perf.Result, Report)
	// ClassifyEach classifies every input across a worker pool and returns
	// per-image results in input order.
	ClassifyEach(inputs []tensor.Vec, enc EncoderFactory, opt Options) ([]perf.Result, []Report, error)
	// ClassifyBatch classifies every input and reduces to the backend's
	// batch aggregate (per-classification averages; Predicted == -1).
	ClassifyBatch(inputs []tensor.Vec, enc EncoderFactory, opt Options) (perf.Result, Report, error)
}

// Session classifies a chunk of inputs — at most the group size handed to
// Each — on worker-owned state, writing input i's outcome to ress[i] and
// reps[i]; encs[i] is input i's encoder. Backends hand Each a session
// constructor; each worker gets its own session, so simulation state is
// never shared across goroutines.
type Session func(inputs []tensor.Vec, encs []snn.Encoder, ress []perf.Result, reps []Report)

// Each is the one shared batch fan-out behind every Backend.ClassifyEach:
// it validates the batch, clamps the worker count, builds one session per
// worker and classifies every input in input order across the pool. Each
// worker takes contiguous chunks of min(group, ⌈n/workers⌉) images, which
// its session runs as one group (snn.RunGroup); group is the backend's
// snn.Network.GroupSize. Image i's outcome depends only on (inputs[i],
// enc(i)), so results are bit-identical for any worker count and chunking.
func Each(inputs []tensor.Vec, enc EncoderFactory, opt Options, group int, newSession func() Session) ([]perf.Result, []Report, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("sim: empty batch")
	}
	if enc == nil {
		return nil, nil, fmt.Errorf("sim: nil encoder factory")
	}
	n := len(inputs)
	chunk, chunks, workers := parallel.Chunk(n, opt.Workers, group)
	sessions := make([]Session, workers)
	for w := range sessions {
		sessions[w] = newSession()
	}
	ress := make([]perf.Result, n)
	reps := make([]Report, n)
	encs := make([]snn.Encoder, n)
	parallel.ForEach(chunks, workers, func(worker, c int) {
		lo, hi := c*chunk, min(n, (c+1)*chunk)
		for i := lo; i < hi; i++ {
			encs[i] = enc(i)
		}
		sessions[worker](inputs[lo:hi], encs[lo:hi], ress[lo:hi], reps[lo:hi])
	})
	return ress, reps, nil
}

// earlyExitBlock is the temporal block length of early-exit runs unless
// Options.BlockSize overrides it. The steps a block integrates past the exit
// step are wasted, so it is shorter than the full-run default: 16 covers the
// typical first output spike (steps 10-23 on mnist-mlp/-cnn at a 48-step
// budget) in one or two blocks and measured fastest of 1, 4, 8, 16 and 48
// (BenchmarkEarlyExitBlock).
const earlyExitBlock = 16

// Run is the one functional runner behind every backend: it classifies the
// members' inputs as one group (snn.RunGroup) within maxSteps timesteps,
// feeding every executed step of member i to its observer, and stores
// member i's result — Steps executed and Prediction — in out[i]. Full runs
// decode by spike count over blocks of configuredBlock steps (<= 0 leaves
// the choice to snn.DefaultBlockSize); with opt.EarlyExit each member stops
// at its first output spike and decodes by time to first spike (-1 when no
// output neuron fired), over blocks of earlyExitBlock steps. A set
// opt.BlockSize overrides either block length; results are bit-identical for
// any block length and any grouping. A single image is a group of one.
func Run(ms []snn.Member, maxSteps, configuredBlock int, opt Options, out []snn.RunResult) {
	k := configuredBlock
	if opt.EarlyExit {
		k = earlyExitBlock
	}
	if opt.BlockSize > 0 {
		k = opt.BlockSize
	}
	snn.RunGroup(ms, maxSteps, k, opt.EarlyExit, out)
}
