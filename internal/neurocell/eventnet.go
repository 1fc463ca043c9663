package neurocell

import (
	"fmt"

	"resparc/internal/event"
	"resparc/internal/packet"
)

// DefaultQueueCap is the default per-switch input-FIFO depth (per buffer
// class) for the event-driven fabric: four flits, matching the Fig 6
// iData/iAddress buffer sizing (one slot per attached mPE port).
const DefaultQueueCap = 4

// EventOptions configure Simulate.
type EventOptions struct {
	// QueueCap bounds each switch's transit FIFOs (one per hop class). Zero
	// selects DefaultQueueCap. A flit whose next hop's FIFO is full stalls
	// at the head of its current queue (credit-based backpressure) instead
	// of dropping — congestion and queuing delay emerge from the flow
	// control.
	QueueCap int
}

// DeadlockError reports that the fabric stalled with flits still in flight:
// no switch can make progress because every remaining flit waits on a slot
// that will never free, e.g. behind a dead switch.
type DeadlockError struct {
	Cycle   int64 // cycle the stall was detected at
	Pending int   // flits still undelivered
	Stuck   []int // switches holding undeliverable flits
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("neurocell: switch fabric deadlock at cycle %d: %d flits stuck at switches %v",
		e.Cycle, e.Pending, e.Stuck)
}

// Simulate runs the traffic to completion on the discrete-event engine and
// returns the statistics. All packets are injected at cycle zero (the worst
// case within one timestep's distribution phase). The address format of
// Fig 6 (SW_ID | mPE_ID | MCA_ID) determines routing; MCA fan-out inside the
// destination mPE is local and free.
//
// Each switch's decoder serves one flit per cycle out of bounded input
// FIFOs, forwarded flits arrive at the next hop one tick later, and a full
// downstream FIFO blocks the sender (head-of-line) until a slot frees, so
// backpressure propagates upstream.
//
// Buffers are split by hop class, the standard escape from protocol
// deadlock under bounded buffering: freshly injected flits wait in q0 for
// their column hop, flits that completed it wait in q1 for their row hop,
// and flits arriving at their destination switch land in a
// consumption-guaranteed ejection queue (the mPE-side sink; its depth is
// not credit-limited, only its 1/cycle drain is). Since routing is
// column-then-row, the dependency chain q0 -> q1 -> ejection is acyclic, so
// a live topology always drains. The decoder arbitrates ejection first,
// then q1, then q0 — strictly, one flit per cycle.
//
// Event ordering is deterministic: within a tick, arrivals commit first,
// then injections and decoders in ascending switch id (the event package's
// (tick, priority, seq) contract), so the same transfer list always yields
// the same statistics.
//
// Faults: a dead injection switch drops the packet at the port (it never
// enters the fabric); a dead switch en route or at the destination never
// accepts flits, so traffic routed toward it backs up and the run returns a
// *DeadlockError with the partial statistics.
func (n *SwitchNet) Simulate(transfers []Transfer, opt EventOptions) (SwitchStats, error) {
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
		// Encode the destination in the Fig 6 address format; the wire
		// format round-trips through the packet package to keep the two
		// views consistent.
		addr := packet.Address{SW: uint8(n.switchOf(t.DstMPE)), MPE: uint8(t.DstMPE)}
		dec := packet.DecodeAddress(addr.Encode())
		if n.switchDead(src) {
			// Injection port is dead: the packet never enters the fabric.
			stats.Dropped++
			continue
		}
		inject[src] = append(inject[src], flit{dst: int(dec.SW)})
		injected++
	}

	var eng event.Engine
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
			if n.switchDead(next) {
				// The row hop leads into a dead switch: this head is wedged
				// forever; nothing re-arms us but new arrivals, and the
				// caller reports deadlock once the engine drains.
				served = false
				break
			}
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
			if n.switchDead(next) {
				served = false
				break
			}
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
		var stuck []int
		for s := 0; s < S; s++ {
			if len(q0[s]) > 0 || len(q1[s]) > 0 || ej[s] > 0 || len(inject[s]) > 0 {
				stuck = append(stuck, s)
			}
		}
		stats.Cycles = int(eng.Now()) + 1
		return stats, &DeadlockError{Cycle: eng.Now(), Pending: pending, Stuck: stuck}
	}
	if lastDeliver >= 0 {
		stats.Cycles = int(lastDeliver) + 1
	}
	return stats, nil
}
