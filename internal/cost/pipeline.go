package cost

import "resparc/internal/event"

// Pipeline computes the makespan of the Fig 7(a) layer pipeline over one or
// more chips in a row, as a discrete-event simulation:
//
//   - stage (chip s, timestep t, layer j) starts once (s, t-1, j) and
//     (s, t, j-1) are done; a chip's first layer also waits for the
//     upstream hop to deliver raster t;
//   - a stage takes its Sync cycles, then holds its chip's global bus (a
//     FIFO resource) for its Bus cycles, then completes after its Local
//     cycles;
//   - hop h carries chip h's last-layer raster t to chip h+1 in
//     hops[h][t] cycles, strictly in timestep order (the channel is one
//     serialized link), and holds at most recvBuf undelivered rasters at the
//     receiver: a credit frees when the receiving chip's first-layer stage
//     for that timestep completes.
//
// Events fire in (tick, priority, insertion) order — stage completions at
// priority s<<10+j, hop deliveries at 1<<20+h — and bus grants follow that
// order, so the makespan is a pure function of the inputs.
//
// The events are plain (kind, chip, step, layer) records on an event.Queue,
// dispatched by one loop. The zero value is ready for use and keeps its
// buffers across calls, so a warm Pipeline does not allocate. A Pipeline is
// not safe for concurrent use.
type Pipeline struct {
	q     event.Queue
	seq   uint64
	now   int64
	chips [][][]Stage
	hops  [][]int64
	steps int
	buses []event.Resource // one global bus per chip
	// need[needOff[s]+t*L+j]: outstanding dependencies before stage
	// (s, t, j) may start, L being chip s's layer count.
	need    []int8
	needOff []int
	// Per-hop link state: readyAt[h*steps+t] is the tick the sender produced
	// raster t (-1: not yet), next the lowest unsent timestep, busy marks a
	// transfer in flight, credits the free receive-buffer slots.
	readyAt  []int64
	next     []int
	busy     []bool
	credits  []int
	linkWait []int64
}

// Event kinds, in the top bit of event.Item.Arg.
const (
	stageDone = 0
	hopDone   = 1
)

// pack encodes an event record in an event.Item.Arg: the kind in the top
// bit, then 21 bits each for the chip (or hop), the timestep and the layer.
func pack(kind, s, t, j int) uint64 {
	return uint64(kind)<<63 | uint64(s)<<42 | uint64(t)<<21 | uint64(j)
}

func unpack(a uint64) (kind, s, t, j int) {
	const m = 1<<21 - 1
	return int(a >> 63), int(a >> 42 & m), int(a >> 21 & m), int(a & m)
}

// Makespan runs the pipeline over chips (chips[s] is chip s's stage grid,
// indexed [timestep][local layer]; every chip has the same timestep count)
// and the hops between neighbouring chips (hops[h][t] is hop h's transfer
// occupancy for raster t). It returns the makespan in cycles, each hop's
// total wait — cycles rasters sat at the sender pad after being ready,
// channel serialization plus credit backpressure — and the summed cycles
// stages spent queued for their chip's bus. linkWait is owned by the
// Pipeline and valid until the next call.
func (p *Pipeline) Makespan(chips [][][]Stage, hops [][]int64, recvBuf int) (makespan int64, linkWait []int64, busWait int64) {
	S := len(chips)
	p.linkWait = resize(p.linkWait, max(S-1, 0))
	clear(p.linkWait)
	if S == 0 || len(chips[0]) == 0 || len(chips[0][0]) == 0 {
		return 0, p.linkWait, 0
	}
	T := len(chips[0])
	p.chips, p.hops, p.steps = chips, hops, T
	p.seq, p.now = 0, 0
	recvBuf = max(recvBuf, 1)

	p.buses = resize(p.buses, S)
	clear(p.buses)
	p.needOff = resize(p.needOff, S)
	n := 0
	for s := range chips {
		p.needOff[s] = n
		n += T * len(chips[s][0])
	}
	p.need = resize(p.need, n)
	for s := range chips {
		L := len(chips[s][0])
		need := p.need[p.needOff[s] : p.needOff[s]+T*L]
		for t := 0; t < T; t++ {
			for j := 0; j < L; j++ {
				var k int8
				if t > 0 {
					k++
				}
				if j > 0 || s > 0 {
					k++ // j == 0 on s > 0 waits for the link delivery
				}
				need[t*L+j] = k
			}
		}
	}
	H := S - 1
	p.readyAt = resize(p.readyAt, H*T)
	for i := range p.readyAt {
		p.readyAt[i] = -1
	}
	p.next = resize(p.next, H)
	clear(p.next)
	p.busy = resize(p.busy, H)
	clear(p.busy)
	p.credits = resize(p.credits, H)
	for h := range p.credits {
		p.credits[h] = recvBuf
	}

	p.launch(0, 0, 0)
	for p.q.Len() > 0 {
		it := p.q.Pop()
		p.now = it.Tick
		kind, s, t, j := unpack(it.Arg)
		if kind == hopDone {
			h := s
			p.busy[h] = false
			p.next[h]++
			p.signal(h+1, t, 0) // raster delivered: receiver's first layer may start
			p.trySend(h)
			continue
		}
		if j == len(chips[s][t])-1 && s < H {
			// Raster t is on the sender pad.
			p.readyAt[s*T+t] = p.now
			p.trySend(s)
		}
		if j == 0 && s > 0 {
			// Raster consumed: free a receive-buffer slot upstream.
			p.credits[s-1]++
			p.trySend(s - 1)
		}
		p.signal(s, t, j+1)
		p.signal(s, t+1, j)
	}
	for s := range p.buses {
		busWait += p.buses[s].Wait()
	}
	p.chips, p.hops = nil, nil
	return p.now, p.linkWait, busWait
}

func (p *Pipeline) push(tick int64, prio int32, arg uint64) {
	p.seq++
	p.q.Push(event.Item{Tick: tick, Prio: prio, Seq: p.seq, Arg: arg})
}

// launch starts stage (s, t, j) now and schedules its completion.
func (p *Pipeline) launch(s, t, j int) {
	d := p.chips[s][t][j]
	busAt := p.now + int64(d.Sync)
	end := busAt + int64(d.Local)
	if d.Bus > 0 {
		start := p.buses[s].Acquire(busAt, int64(d.Bus))
		end = start + int64(d.Bus) + int64(d.Local)
	}
	p.push(end, int32(s<<10+j), pack(stageDone, s, t, j))
}

// signal resolves one dependency of stage (s, t, j), launching it when it
// was the last.
func (p *Pipeline) signal(s, t, j int) {
	if t >= p.steps {
		return
	}
	L := len(p.chips[s][t])
	if j >= L {
		return
	}
	k := p.needOff[s] + t*L + j
	p.need[k]--
	if p.need[k] <= 0 {
		p.launch(s, t, j)
	}
}

// trySend starts hop h's next transfer if its raster is ready, the channel
// is idle and the receiver has a free buffer slot.
func (p *Pipeline) trySend(h int) {
	t := p.next[h]
	if t >= p.steps || p.busy[h] || p.readyAt[h*p.steps+t] < 0 || p.credits[h] == 0 {
		return
	}
	p.linkWait[h] += p.now - p.readyAt[h*p.steps+t]
	p.busy[h] = true
	p.credits[h]--
	p.push(p.now+p.hops[h][t], int32(1<<20+h), pack(hopDone, h, t, 0))
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
