package neurocell

import "fmt"

// DefaultQueueCap is the default per-switch input-FIFO depth (per buffer
// class) for the switch fabric: four flits, matching the Fig 6
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

// Simulate runs the traffic to completion and returns the statistics. All
// packets are injected at cycle zero (the worst case within one timestep's
// distribution phase). The destination mPE's switch determines routing; MCA
// fan-out inside the destination mPE is local and free.
//
// Each switch's decoder serves one flit per cycle out of bounded input
// FIFOs, forwarded flits arrive at the next hop one cycle later, and a full
// downstream FIFO blocks the sender (head-of-line) until a slot frees, so
// backpressure propagates upstream.
//
// Buffers are split by hop class, the standard escape from protocol
// deadlock under bounded buffering: freshly injected flits wait in q0 for
// their column hop, flits that completed it wait in q1 for their row hop,
// and flits arriving at their destination switch land in a
// consumption-guaranteed ejection queue (the mPE-side sink; its depth is
// not credit-limited, only its 1/cycle drain is). The decoder arbitrates
// ejection first, then q1, then q0 — strictly, one flit per cycle.
//
// The fabric is synchronous (§3.1.2), so it runs as one loop over cycles.
// Each cycle first commits the flits forwarded in the previous cycle, in the
// order they were forwarded, then runs the injectors and then the decoders,
// each in ascending switch id; the same transfer list always yields the
// same statistics.
func (n *SwitchNet) Simulate(transfers []Transfer, opt EventOptions) (SwitchStats, error) {
	qcap := opt.QueueCap
	if qcap <= 0 {
		qcap = DefaultQueueCap
	}
	f := fabric{
		n:     n,
		qcap:  qcap,
		sw:    make([]switchState, n.Switches()),
		stats: SwitchStats{Forwards: make([]int, n.Switches())},
		last:  -1,
	}
	for _, t := range transfers {
		if t.SrcMPE < 0 || t.SrcMPE >= n.dim*n.dim || t.DstMPE < 0 || t.DstMPE >= n.dim*n.dim {
			return SwitchStats{}, fmt.Errorf("neurocell: transfer %+v out of the %dx%d array", t, n.dim, n.dim)
		}
		w := &f.sw[n.switchOf(t.SrcMPE)]
		w.inject = append(w.inject, n.switchOf(t.DstMPE))
	}
	for s := range f.sw {
		f.sw[s].blockStart, f.sw[s].injBlockStart = -1, -1
		if len(f.sw[s].inject) > 0 {
			f.armInjector(s)
		}
	}

	// The hop-class chain q0 -> q1 -> ejection is acyclic and every stalled
	// unit is re-armed when the slot it waits on frees, so once no unit is
	// armed and no flit is in flight the fabric has drained: every flit is
	// delivered.
	for ; f.live > 0 || len(f.inFlight) > 0; f.now++ {
		for _, a := range f.inFlight {
			w := &f.sw[a.at]
			if a.dst == a.at {
				w.ej++
				f.maxq(w.ej)
			} else {
				w.q1 = append(w.q1, a.dst)
				f.maxq(len(w.q1))
			}
			f.armArbiter(a.at, f.now)
		}
		f.inFlight = f.inFlight[:0]
		for s := range f.sw {
			if f.sw[s].injArmed {
				f.sw[s].injArmed = false
				f.live--
				f.injector(s)
			}
		}
		for s := range f.sw {
			if w := &f.sw[s]; w.armed && w.armAt == f.now {
				w.armed = false
				f.live--
				f.arbiter(s)
			}
		}
	}
	if f.last >= 0 {
		f.stats.Cycles = int(f.last) + 1
	}
	return f.stats, nil
}

// fabric is the state of one Simulate run.
type fabric struct {
	n        *SwitchNet
	qcap     int
	sw       []switchState
	stats    SwitchStats
	now      int64
	last     int64     // cycle of the last delivery (-1: none yet)
	live     int       // armed decoders and injectors
	inFlight []arrival // flits forwarded this cycle, landing next cycle
}

// switchState is one switch's buffers and its two units: the injector,
// which moves flits from the mPE-side output buffer into q0, and the
// decoder, which forwards one flit per cycle. A unit is armed for one cycle
// at a time; arming an armed unit again is a no-op.
type switchState struct {
	// Queued flits, as destination switches.
	inject []int // unbounded mPE-side output buffer
	q0     []int // bounded: injected flits awaiting the column hop
	q1     []int // bounded: transit flits awaiting the row hop
	ej     int   // ejection queue depth (flits at their dst switch)
	occ1   int   // q1 occupancy incl. reserved in-flight slots

	armed    bool // decoder due at cycle armAt
	armAt    int64
	injArmed bool // injector due at the next injector phase

	waiting       bool  // decoder registered as a q1 credit waiter
	injWaiting    bool  // injector waiting for a q0 slot
	blockStart    int64 // cycle the q0 head credit-stalled (-1 = flowing)
	injBlockStart int64 // cycle the injector stalled (-1 = flowing)
	// q1Waiters lists upstream switches whose q0 head stalled on a slot in
	// this switch's q1.
	q1Waiters []int
}

// arrival is a forwarded flit landing at switch at, bound for switch dst.
type arrival struct{ at, dst int }

func (f *fabric) maxq(depth int) {
	if depth > f.stats.MaxQueue {
		f.stats.MaxQueue = depth
	}
}

// armArbiter arms s's decoder for cycle at: the current cycle from the
// arrival and injector phases, the next from the decoder phase, whose scan
// therefore runs only decoders armed for the current cycle.
func (f *fabric) armArbiter(s int, at int64) {
	if w := &f.sw[s]; !w.armed {
		w.armed, w.armAt = true, at
		f.live++
	}
}

// armInjector arms s's injector for the next injector phase: the current
// cycle's before any injector ran, the next cycle's after.
func (f *fabric) armInjector(s int) {
	if w := &f.sw[s]; !w.injArmed {
		w.injArmed = true
		f.live++
	}
}

// forward sends a flit from s to its next switch, where it lands next
// cycle: at its destination switch it joins the ejection queue, elsewhere
// the row-hop transit FIFO.
func (f *fabric) forward(s, next, dst int) {
	f.stats.Forwards[s]++
	f.stats.Hops++
	f.inFlight = append(f.inFlight, arrival{at: next, dst: dst})
}

// deliver counts s's egress of a flit to its destination mPE.
func (f *fabric) deliver(s int) {
	f.stats.Forwards[s]++
	f.stats.Hops++
	f.stats.Delivered++
	f.last = f.now
}

// wakeInjector re-arms s's injector after a q0 slot freed.
func (f *fabric) wakeInjector(s int) {
	if w := &f.sw[s]; w.injWaiting {
		w.injWaiting = false
		f.armInjector(s)
	}
}

// wakeQ1 re-arms decoders stalled on a slot in s's q1; they retry next
// cycle in ascending switch id and re-block if another waiter claimed the
// slot first.
func (f *fabric) wakeQ1(s int) {
	ws := f.sw[s].q1Waiters
	f.sw[s].q1Waiters = ws[:0]
	for _, w := range ws {
		f.sw[w].waiting = false
		f.armArbiter(w, f.now+1)
	}
}

// arbiter is s's decoder: one flit per cycle, ejection first, then q1, then
// q0.
func (f *fabric) arbiter(s int) {
	w := &f.sw[s]
	served := true
	switch {
	case w.ej > 0:
		// Egress to the destination mPE.
		w.ej--
		f.deliver(s)
	case len(w.q1) > 0:
		dst := w.q1[0]
		w.q1 = w.q1[1:]
		w.occ1--
		f.forward(s, f.n.route(s, dst), dst) // the row hop reaches dst
		f.wakeQ1(s)
	case len(w.q0) > 0:
		dst := w.q0[0]
		if dst == s {
			// Source and destination share the switch: direct egress.
			w.q0 = w.q0[1:]
			f.deliver(s)
			f.wakeInjector(s)
			break
		}
		next := f.n.route(s, dst)
		if dst != next && f.sw[next].occ1 >= f.qcap {
			// Column hop blocked on a full transit FIFO: wait for a credit.
			// (A hop straight to the destination switch joins its ejection
			// queue and is never credit-limited.)
			if w.blockStart < 0 {
				w.blockStart = f.now
			}
			if !w.waiting {
				w.waiting = true
				f.sw[next].q1Waiters = append(f.sw[next].q1Waiters, s)
			}
			served = false
			break
		}
		if dst != next {
			f.sw[next].occ1++ // reserve the slot for the in-flight flit
		}
		w.q0 = w.q0[1:]
		if w.blockStart >= 0 {
			f.stats.WaitCycles += int(f.now - w.blockStart)
			w.blockStart = -1
		}
		f.forward(s, next, dst)
		f.wakeInjector(s)
	default:
		served = false
	}
	if served && (w.ej > 0 || len(w.q1) > 0 || len(w.q0) > 0) {
		f.armArbiter(s, f.now+1)
	}
}

// injector moves the head of s's output buffer into q0, or stalls while q0
// is full.
func (f *fabric) injector(s int) {
	w := &f.sw[s]
	if len(w.inject) == 0 {
		return
	}
	if len(w.q0) >= f.qcap {
		if w.injBlockStart < 0 {
			w.injBlockStart = f.now
		}
		w.injWaiting = true
		return
	}
	dst := w.inject[0]
	w.inject = w.inject[1:]
	if w.injBlockStart >= 0 {
		f.stats.WaitCycles += int(f.now - w.injBlockStart)
		w.injBlockStart = -1
	}
	w.q0 = append(w.q0, dst)
	f.maxq(len(w.q0))
	f.armArbiter(s, f.now) // injection precedes arbitration within the cycle
	if len(w.inject) > 0 {
		f.armInjector(s)
	}
}
