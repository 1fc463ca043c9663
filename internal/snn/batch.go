package snn

import (
	"fmt"

	"resparc/internal/parallel"
	"resparc/internal/tensor"
)

// EncoderFactory builds a deterministic per-sample encoder — typically
// baseEncoder.ForkSeed(i) — so every image's spike stream depends only on
// its index, never on worker scheduling.
type EncoderFactory func(sample int) Encoder

// Options select how a batch run executes. The zero value is the default:
// the blocked layer-major runner (see blocked.go) with DefaultBlockSize, one
// worker per CPU.
type Options struct {
	// Workers is the worker-pool size (<= 0 selects one per CPU). Results
	// are bit-identical for any value; Workers: 1 is the serial reference.
	Workers int
	// BlockSize overrides the temporal block length of the blocked runner
	// (<= 0 selects DefaultBlockSize). Results are bit-identical for any
	// value; BlockSize: 1 runs the step-major loop nest.
	BlockSize int
}

// RunBatch classifies every input across a worker pool and returns the
// per-image RunResults in input order. Each worker owns one State (reused
// across its images; each run resets it) and each image gets its own
// encoder from enc, so the results are bit-identical for any worker count:
// Options{Workers: 1} is the serial reference and any other pool size must
// match it exactly.
func RunBatch(net *Network, inputs []tensor.Vec, enc EncoderFactory, steps int, opt Options) ([]RunResult, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("snn: empty batch")
	}
	if steps < 1 {
		return nil, fmt.Errorf("snn: steps %d", steps)
	}
	workers := parallel.Clamp(opt.Workers, len(inputs))
	runOne := func(st *State, i int) RunResult {
		return st.RunBlockedK(inputs[i], enc(i), steps, opt.BlockSize, nil)
	}
	results := make([]RunResult, len(inputs))
	if workers == 1 {
		// Serial fast path: one State on the calling goroutine, no worker
		// pool or per-worker state fan-out.
		st := NewState(net)
		for i := range inputs {
			results[i] = runOne(st, i).Clone()
		}
		return results, nil
	}
	states := make([]*State, workers)
	for w := range states {
		states[w] = NewState(net)
	}
	parallel.ForEach(len(inputs), workers, func(worker, i int) {
		// States are reused across a worker's share, so detach the result
		// from the State scratch before the next image overwrites it.
		results[i] = runOne(states[worker], i).Clone()
	})
	return results, nil
}
