// Package event is the deterministic discrete-event engine underlying the
// transaction-level simulators. Virtual time is an integer tick counter; the
// pending-event set is a binary min-heap ordered by the composite key
// (tick, priority, seq), where seq is a monotonically increasing insertion
// stamp assigned by the engine. The ordering contract:
//
//   - events fire in non-decreasing tick order;
//   - events at the same tick fire in ascending priority (lower first);
//   - events at the same (tick, priority) fire in the order they were
//     scheduled (FIFO via seq).
//
// Because every component of the key is an integer fixed at Schedule time,
// the pop sequence is a pure function of the schedule — independent of heap
// internals, map iteration, goroutines or wall clock — which is what makes
// event-driven simulation results reproducible across runs and platforms
// (and is covered by a randomized-insertion property test).
//
// The engine is intentionally single-threaded: handlers run on the caller's
// goroutine inside Run/Step, and may schedule further events. Simulators
// that need parallelism fan out whole engine instances per image/shard, the
// same per-task isolation contract as internal/parallel.
package event

// Handler is an event callback. It runs with the engine clock set to the
// event's tick and may schedule further events (at the current tick or
// later — scheduling into the past panics).
type Handler func()

// Item is one pending event. Exported so tests (and tools) can express a
// schedule as plain data; simulators normally go through Engine.Schedule.
// A simulator that drives a Queue itself can carry its event as plain data
// in Arg and dispatch popped items in one loop instead of through Fn.
type Item struct {
	Tick int64   // virtual time the event fires at
	Prio int32   // tie-break within a tick: lower fires first
	Seq  uint64  // insertion stamp: FIFO within (Tick, Prio)
	Fn   Handler // callback; nil items pop but do nothing
	Arg  uint64  // caller-defined payload; the queue never reads it
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
// an empty queue ready for use. It does not assign Seq — callers that want
// the engine's FIFO stamping use Engine.Schedule instead.
//
// The heap is a typed binary heap over []Item: Push and Pop sift in place
// and never box an item, so a warm queue does not allocate. With distinct
// keys (the engine stamps every event with a unique Seq) the pop order is
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
	h[n] = Item{} // drop the handler reference
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

// Peek returns the minimum item without removing it.
func (q *Queue) Peek() Item { return q.h[0] }

// Engine owns a queue and the virtual clock. The zero value is a ready
// engine at tick 0.
type Engine struct {
	q   Queue
	now int64
	seq uint64
}

// Now returns the current virtual tick. Inside a handler this is the tick
// the event was scheduled for.
func (e *Engine) Now() int64 { return e.now }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.q.Len() }

// Schedule registers fn to run at the given absolute tick with the given
// priority. Scheduling before the current tick panics — virtual time never
// rewinds. Returns the assigned insertion stamp (useful only for debugging).
func (e *Engine) Schedule(tick int64, prio int32, fn Handler) uint64 {
	if tick < e.now {
		panic("event: schedule into the past")
	}
	e.seq++
	e.q.Push(Item{Tick: tick, Prio: prio, Seq: e.seq, Fn: fn})
	return e.seq
}

// After schedules fn delay ticks after the current tick.
func (e *Engine) After(delay int64, prio int32, fn Handler) uint64 {
	if delay < 0 {
		panic("event: negative delay")
	}
	return e.Schedule(e.now+delay, prio, fn)
}

// Step fires the single next event (advancing the clock to its tick) and
// reports whether one was pending.
func (e *Engine) Step() bool {
	if e.q.Len() == 0 {
		return false
	}
	it := e.q.Pop()
	e.now = it.Tick
	if it.Fn != nil {
		it.Fn()
	}
	return true
}

// Run fires events until the queue drains and returns the final tick. A
// handler that always reschedules itself never terminates; simulators bound
// such loops themselves (see RunUntil).
func (e *Engine) Run() int64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events while the next event's tick is <= limit. It returns
// the final clock value and whether the queue drained. Events beyond the
// limit stay pending, so a caller can inspect them (e.g. to report a
// deadlock with stuck work still queued).
func (e *Engine) RunUntil(limit int64) (int64, bool) {
	for e.q.Len() > 0 && e.q.Peek().Tick <= limit {
		e.Step()
	}
	return e.now, e.q.Len() == 0
}

// Resource models a FIFO-exclusive unit (a shared bus, a link direction): at
// most one hold at a time, grants in request order. Acquire returns the tick
// the hold begins — max(now, previous release) — and advances the release
// horizon by the hold duration. Busy and Wait accumulate utilization and
// queuing-delay totals for reporting.
type Resource struct {
	free int64 // tick the resource next becomes idle
	busy int64 // total ticks held
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
	r.busy += dur
	return start
}

// FreeAt returns the tick the resource next becomes idle.
func (r *Resource) FreeAt() int64 { return r.free }

// Busy returns total ticks the resource was held.
func (r *Resource) Busy() int64 { return r.busy }

// Wait returns total ticks requests spent waiting for a grant.
func (r *Resource) Wait() int64 { return r.wait }
