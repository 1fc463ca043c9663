// Package event holds the two primitives of the transaction-level timing
// models: a deterministic priority queue of plain event records and a
// FIFO-exclusive resource. A simulator dispatches the records it pops in its
// own loop (cost.Pipeline does), so no callback is ever scheduled.
//
// Items are ordered by the composite key (tick, priority, seq):
//
//   - items pop in non-decreasing tick order;
//   - items at the same tick pop in ascending priority (lower first);
//   - items at the same (tick, priority) pop in ascending seq, so a caller
//     that stamps seq in scheduling order gets FIFO within a key.
//
// Because every component of the key is an integer fixed at Push time, the
// pop sequence of distinct keys is a pure function of the set of items —
// independent of insertion order, heap internals, map iteration, goroutines
// or wall clock — which is what makes the timing models reproducible across
// runs and platforms (and is covered by a randomized-insertion property
// test). Neither type is safe for concurrent use; simulators that need
// parallelism give each task its own instances, the same per-task isolation
// contract as internal/parallel.
package event

// Item is one pending event as plain data: the queue orders it by (Tick,
// Prio, Seq) and carries the caller's record in Arg.
type Item struct {
	Tick int64  // virtual time the event fires at
	Prio int32  // tie-break within a tick: lower fires first
	Seq  uint64 // insertion stamp: FIFO within (Tick, Prio)
	Arg  uint64 // caller-defined payload; the queue never reads it
}

// Less orders items by the composite key (Tick, Prio, Seq).
func (a Item) Less(b Item) bool {
	if a.Tick != b.Tick {
		return a.Tick < b.Tick
	}
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Seq < b.Seq
}

// Queue is a min-heap of Items keyed by (Tick, Prio, Seq). The zero value is
// an empty queue ready for use. It does not assign Seq: callers stamp it.
//
// The heap is a typed binary heap over []Item: Push and Pop sift in place
// and never box an item, so a warm queue does not allocate. With distinct
// keys (a caller that stamps every item with a unique Seq) the pop order is
// the total order of the key and does not depend on the heap's shape.
type Queue struct{ h []Item }

// Len reports the number of pending items.
func (q *Queue) Len() int { return len(q.h) }

// Push inserts an item.
func (q *Queue) Push(it Item) {
	h := append(q.h, it)
	// Sift up: move the hole from the new leaf toward the root while the
	// item beats its parent.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.Less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	q.h = h
}

// Pop removes and returns the minimum item. It panics on an empty queue;
// check Len first.
func (q *Queue) Pop() Item {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		// Sift down: move the hole from the root toward the leaves while a
		// child beats the former last item, then drop that item in.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].Less(h[c]) {
				c = r
			}
			if !h[c].Less(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.h = h
	return top
}

// Resource models a FIFO-exclusive unit (a shared bus, a link direction): at
// most one hold at a time, grants in request order. Acquire returns the tick
// the hold begins — max(now, previous release) — and advances the release
// horizon by the hold duration. Wait accumulates the queuing-delay total
// for reporting.
type Resource struct {
	free int64 // tick the resource next becomes idle
	wait int64 // total ticks requests spent queued
}

// Acquire requests the resource at tick `at` for `dur` ticks and returns the
// tick service starts. Callers schedule their completion at start+dur.
func (r *Resource) Acquire(at, dur int64) (start int64) {
	start = at
	if r.free > start {
		start = r.free
	}
	r.wait += start - at
	r.free = start + dur
	return start
}

// Wait returns total ticks requests spent waiting for a grant.
func (r *Resource) Wait() int64 { return r.wait }
