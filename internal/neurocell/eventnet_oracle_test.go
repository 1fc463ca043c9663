package neurocell

import (
	"fmt"

	"resparc/internal/event"
)

// This file keeps the closure-scheduling discrete-event fabric that the
// cycle loop in eventnet.go replaced, as a test oracle: oracleSimulate is
// that Simulate verbatim apart from the engine type, with the dead-switch
// fault path removed and the destination taken straight from switchOf. The
// property test in eventnet_test.go pins Simulate's full SwitchStats to it.

// engine is the closure-scheduling event engine the oracle runs on: events
// fire in (tick, priority, scheduling order), handlers run with the clock at
// the event's tick and may schedule further events at that tick or later.
type engine struct {
	q   event.Queue
	fns []func() // fns[Arg] is the callback of a queued item
	now int64
	seq uint64
}

func (e *engine) Now() int64 { return e.now }

func (e *engine) Schedule(tick int64, prio int32, fn func()) {
	if tick < e.now {
		panic("oracle engine: schedule into the past")
	}
	e.seq++
	e.q.Push(event.Item{Tick: tick, Prio: prio, Seq: e.seq, Arg: uint64(len(e.fns))})
	e.fns = append(e.fns, fn)
}

// Run fires events until the queue drains and returns the final tick.
func (e *engine) Run() int64 {
	for e.q.Len() > 0 {
		it := e.q.Pop()
		e.now = it.Tick
		fn := e.fns[it.Arg]
		e.fns[it.Arg] = nil
		fn()
	}
	return e.now
}

type flit struct {
	dst int // destination switch
}

func oracleSimulate(n *SwitchNet, transfers []Transfer, opt EventOptions) (SwitchStats, error) {
	qcap := opt.QueueCap
	if qcap <= 0 {
		qcap = DefaultQueueCap
	}
	S := n.Switches()
	stats := SwitchStats{Forwards: make([]int, S)}

	inject := make([][]flit, S) // unbounded mPE-side output buffers
	q0 := make([][]flit, S)     // bounded: injected flits awaiting the column hop
	q1 := make([][]flit, S)     // bounded: transit flits awaiting the row hop
	ej := make([]int, S)        // ejection queue depth (flits at their dst switch)
	occ1 := make([]int, S)      // q1 occupancy incl. reserved in-flight slots

	injected := 0
	for _, t := range transfers {
		if t.SrcMPE < 0 || t.SrcMPE >= n.dim*n.dim || t.DstMPE < 0 || t.DstMPE >= n.dim*n.dim {
			return SwitchStats{}, fmt.Errorf("neurocell: transfer %+v out of the %dx%d array", t, n.dim, n.dim)
		}
		src := n.switchOf(t.SrcMPE)
		inject[src] = append(inject[src], flit{dst: n.switchOf(t.DstMPE)})
		injected++
	}

	var eng engine
	// Within-tick priority bands: arrivals commit below everything else so a
	// flit forwarded at T is serviceable at T+1 (one cycle per hop);
	// injections precede arbitration so a freshly injected flit is
	// forwardable the same cycle.
	const prioArrive = int32(0)
	prioInject := func(s int) int32 { return int32(1<<10 + s) }
	prioArbit := func(s int) int32 { return int32(2<<10 + s) }

	armed := make([]bool, S)       // decoder event scheduled
	injArmed := make([]bool, S)    // injector event scheduled
	waiting := make([]bool, S)     // decoder registered as a q1 credit waiter
	injWaiting := make([]bool, S)  // injector registered as a q0 credit waiter
	blockStart := make([]int64, S) // tick the q0 head credit-stalled (-1 = flowing)
	injBlockStart := make([]int64, S)
	for s := 0; s < S; s++ {
		blockStart[s], injBlockStart[s] = -1, -1
	}
	// q1Waiters[s] lists upstream switches whose q0 head stalled on a slot
	// in s's q1; q0Waiters[s] is s's own injector (at most one).
	q1Waiters := make([][]int, S)

	pending := injected
	lastDeliver := int64(-1)

	maxq := func(depth int) {
		if depth > stats.MaxQueue {
			stats.MaxQueue = depth
		}
	}

	var armArbiter func(s int, tick int64)
	var armInjector func(s int, tick int64)
	var arbiter func(s int)
	var injector func(s int)

	armArbiter = func(s int, tick int64) {
		if armed[s] {
			return
		}
		armed[s] = true
		eng.Schedule(tick, prioArbit(s), func() { arbiter(s) })
	}
	armInjector = func(s int, tick int64) {
		if injArmed[s] {
			return
		}
		injArmed[s] = true
		eng.Schedule(tick, prioInject(s), func() { injector(s) })
	}
	// arrive lands a forwarded flit at its next switch one tick later:
	// flits at their destination switch join the ejection queue, others the
	// row-hop transit FIFO.
	arrive := func(dst int, f flit, at int64) {
		eng.Schedule(at, prioArrive, func() {
			if f.dst == dst {
				ej[dst]++
				maxq(ej[dst])
			} else {
				q1[dst] = append(q1[dst], f)
				maxq(len(q1[dst]))
			}
			armArbiter(dst, eng.Now())
		})
	}
	// wakeQ1 re-arms decoders stalled on a slot in s's q1; they retry next
	// cycle in ascending switch id and re-block if another waiter claimed
	// the slot first.
	wakeQ1 := func(s int, at int64) {
		ws := q1Waiters[s]
		if len(ws) == 0 {
			return
		}
		q1Waiters[s] = nil
		for _, w := range ws {
			waiting[w] = false
			armArbiter(w, at+1)
		}
	}

	arbiter = func(s int) {
		armed[s] = false
		now := eng.Now()
		served := true
		switch {
		case ej[s] > 0:
			// Egress to the destination mPE.
			ej[s]--
			stats.Forwards[s]++
			stats.Hops++
			stats.Delivered++
			pending--
			lastDeliver = now
		case len(q1[s]) > 0:
			f := q1[s][0]
			next := n.route(s, f.dst)
			q1[s] = q1[s][1:]
			occ1[s]--
			stats.Forwards[s]++
			stats.Hops++
			arrive(next, f, now+1) // dst == next: lands in the ejection queue
			wakeQ1(s, now)
		case len(q0[s]) > 0:
			f := q0[s][0]
			if f.dst == s {
				// Source and destination share the switch: direct egress.
				q0[s] = q0[s][1:]
				stats.Forwards[s]++
				stats.Hops++
				stats.Delivered++
				pending--
				lastDeliver = now
				if injWaiting[s] {
					injWaiting[s] = false
					armInjector(s, now+1)
				}
				break
			}
			next := n.route(s, f.dst)
			if f.dst != next && occ1[next] >= qcap {
				// Column hop blocked on a full transit FIFO: wait for a
				// credit. (A hop straight to the destination switch joins
				// its ejection queue and is never credit-limited.)
				if blockStart[s] < 0 {
					blockStart[s] = now
				}
				if !waiting[s] {
					waiting[s] = true
					q1Waiters[next] = append(q1Waiters[next], s)
				}
				served = false
				break
			}
			if f.dst != next {
				occ1[next]++ // reserve the slot for the in-flight flit
			}
			q0[s] = q0[s][1:]
			if blockStart[s] >= 0 {
				stats.WaitCycles += int(now - blockStart[s])
				blockStart[s] = -1
			}
			stats.Forwards[s]++
			stats.Hops++
			arrive(next, f, now+1)
			if injWaiting[s] {
				injWaiting[s] = false
				armInjector(s, now+1)
			}
		default:
			served = false
		}
		if served && (ej[s] > 0 || len(q1[s]) > 0 || len(q0[s]) > 0) {
			armArbiter(s, now+1)
		}
	}

	injector = func(s int) {
		injArmed[s] = false
		if len(inject[s]) == 0 {
			return
		}
		now := eng.Now()
		if len(q0[s]) >= qcap {
			if injBlockStart[s] < 0 {
				injBlockStart[s] = now
			}
			injWaiting[s] = true
			return
		}
		f := inject[s][0]
		inject[s] = inject[s][1:]
		if injBlockStart[s] >= 0 {
			stats.WaitCycles += int(now - injBlockStart[s])
			injBlockStart[s] = -1
		}
		q0[s] = append(q0[s], f)
		maxq(len(q0[s]))
		armArbiter(s, now) // injection precedes arbitration within the tick
		if len(inject[s]) > 0 {
			armInjector(s, now+1)
		}
	}

	for s := 0; s < S; s++ {
		if len(inject[s]) > 0 {
			armInjector(s, 0)
		}
	}
	eng.Run()

	if pending > 0 {
		return stats, fmt.Errorf("oracle fabric stalled at cycle %d with %d flits undelivered", eng.Now(), pending)
	}
	if lastDeliver >= 0 {
		stats.Cycles = int(lastDeliver) + 1
	}
	return stats, nil
}
