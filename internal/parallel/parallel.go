// Package parallel provides the shared worker-pool evaluation harness used
// by every batch classifier in the repo: the functional SNN evaluator
// (internal/snn), the RESPARC chip simulator (internal/core) and the CMOS
// baseline (internal/cmosbase).
//
// The harness fans item indices across a fixed set of workers. Determinism
// is the callers' contract, and it is structural, not scheduling-dependent:
// each item i writes only results[i], each worker owns its own scratch
// state,
// and any randomness is keyed by item index (see snn.PoissonEncoder.ForkSeed)
// — so the reduced outcome is bit-identical for any worker count.
package parallel

import "runtime"

// DefaultWorkers returns the default worker count: one per logical CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Clamp normalizes a requested worker count against n items: non-positive
// requests become DefaultWorkers(), and the pool never exceeds the item
// count.
func Clamp(workers, n int) int {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Chunk splits n items for a pool of workers (clamped via Clamp) into
// contiguous chunks of size = min(group, ⌈n/workers⌉) items — at least one
// — so every worker gets work whenever n allows and no chunk exceeds group.
// It returns the chunk size, the chunk count ⌈n/size⌉ and the pool size,
// which never exceeds the chunk count. Chunk c covers items
// [c*size, min(n, (c+1)*size)).
func Chunk(n, workers, group int) (size, chunks, pool int) {
	pool = Clamp(workers, n)
	size = max(1, min(group, (n+pool-1)/pool))
	chunks = (n + size - 1) / size
	return size, chunks, min(pool, chunks)
}

// ForEach runs fn(worker, i) for every i in [0, n) across the given number
// of workers (clamped via Clamp). The worker id in [0, workers) lets callers
// maintain per-worker scratch state (simulation State, membrane buffers)
// that is reused across the items the worker processes. Items are handed out
// dynamically, so callers must not depend on which worker processes which
// item — only on the item index.
//
// With workers == 1 the items run in order on the calling goroutine; this is
// the serial reference path the equivalence tests compare against.
func ForEach(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer func() { done <- struct{}{} }()
			for i := range next {
				fn(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
}
