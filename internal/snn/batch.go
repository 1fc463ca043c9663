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
// per-image RunResults in input order. Each worker owns a group of
// net.GroupSize() States (reused across its images; each run resets them)
// and takes contiguous chunks of min(GroupSize, ⌈n/workers⌉) images, which
// it runs as one group (RunGroup); each image gets its own encoder from enc.
// The results are therefore bit-identical for any worker count:
// Options{Workers: 1} is the serial reference and any other pool size must
// match it exactly.
func RunBatch(net *Network, inputs []tensor.Vec, enc EncoderFactory, steps int, opt Options) ([]RunResult, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("snn: empty batch")
	}
	if steps < 1 {
		return nil, fmt.Errorf("snn: steps %d", steps)
	}
	n := len(inputs)
	chunk, chunks, workers := parallel.Chunk(n, opt.Workers, net.GroupSize())
	groups := make([][]Member, workers)
	for w := range groups {
		groups[w] = make([]Member, chunk)
		for i := range groups[w] {
			groups[w][i].State = NewState(net)
		}
	}
	results := make([]RunResult, n)
	parallel.ForEach(chunks, workers, func(worker, c int) {
		lo, hi := c*chunk, min(n, (c+1)*chunk)
		ms := groups[worker][:hi-lo]
		for i := range ms {
			ms[i].Input, ms[i].Enc = inputs[lo+i], enc(lo+i)
		}
		RunGroup(ms, steps, opt.BlockSize, false, results[lo:hi])
		// States are reused across a worker's chunks, so detach the results
		// from the State scratch before the next chunk overwrites it.
		for i := lo; i < hi; i++ {
			results[i] = results[i].Clone()
		}
	})
	return results, nil
}
