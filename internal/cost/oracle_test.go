package cost

import "resparc/internal/event"

// This file keeps the three pipeline makespans Pipeline replaced — the
// chip's, the multi-chip pipeline's and the mapper's — as test oracles. Each
// scheduled two closures per event on a closure-scheduling event engine
// (engine below); they are kept verbatim apart from their input types, so
// the property tests in pipeline_test.go can pin Pipeline to them bit for
// bit.

// engine is the oracles' event engine: handlers fire in (tick, priority,
// scheduling order), run with the clock at the event's tick and may
// schedule further events at that tick or later.
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

// oracleChip is the single-chip makespan: stage (layer j, timestep t)
// starts once stage (j, t-1) and stage (j-1, t) are both done, holds the
// shared global bus for its bus phase, and completes after its local phase.
// stages is indexed [timestep][layer].
func oracleChip(stages [][]Stage, busWait *int64) int64 {
	T := len(stages)
	if T == 0 {
		return 0
	}
	L := len(stages[0])
	if L == 0 {
		return 0
	}
	var eng engine
	var bus event.Resource
	need := make([][]int8, T)
	for t := range need {
		need[t] = make([]int8, L)
		for j := range need[t] {
			if t > 0 {
				need[t][j]++
			}
			if j > 0 {
				need[t][j]++
			}
		}
	}
	var launch func(t, j int)
	signal := func(t, j int) {
		if t >= T || j >= L {
			return
		}
		need[t][j]--
		if need[t][j] <= 0 {
			launch(t, j)
		}
	}
	launch = func(t, j int) {
		d := stages[t][j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := bus.Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		eng.Schedule(end, int32(j), func() {
			signal(t, j+1)
			signal(t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0) })
	makespan := eng.Run()
	if busWait != nil {
		*busWait = bus.Wait()
	}
	return makespan
}

// oracleShards is the multi-chip makespan over the chips' stage grids
// (parts[s] indexed [timestep][local layer]) and the hops' per-raster
// occupancies, with each hop's wait and the summed bus queuing.
func oracleShards(parts [][][]Stage, hopSteps [][]int64, recvBuf int) (makespan int64, linkWait []int64, busWait int64) {
	S := len(parts)
	linkWait = make([]int64, S-1)
	if S == 0 || len(parts[0]) == 0 {
		return 0, linkWait, 0
	}
	T := len(parts[0])
	if recvBuf < 1 {
		recvBuf = 1
	}

	var eng engine
	buses := make([]event.Resource, S)
	need := make([][][]int8, S)
	for s := 0; s < S; s++ {
		L := len(parts[s][0])
		need[s] = make([][]int8, T)
		for t := 0; t < T; t++ {
			need[s][t] = make([]int8, L)
			for j := 0; j < L; j++ {
				if t > 0 {
					need[s][t][j]++
				}
				if j > 0 || s > 0 {
					need[s][t][j]++
				}
			}
		}
	}

	readyAt := make([][]int64, S-1)
	next := make([]int, S-1)
	busy := make([]bool, S-1)
	credits := make([]int, S-1)
	for h := range readyAt {
		readyAt[h] = make([]int64, T)
		for t := range readyAt[h] {
			readyAt[h][t] = -1
		}
		credits[h] = recvBuf
	}

	var launch func(s, t, j int)
	signal := func(s, t, j int) {
		if t >= T || j >= len(need[s][t]) {
			return
		}
		need[s][t][j]--
		if need[s][t][j] <= 0 {
			launch(s, t, j)
		}
	}
	var trySend func(h int)
	trySend = func(h int) {
		t := next[h]
		if t >= T || busy[h] || readyAt[h][t] < 0 || credits[h] == 0 {
			return
		}
		now := eng.Now()
		linkWait[h] += now - readyAt[h][t]
		busy[h] = true
		credits[h]--
		eng.Schedule(now+hopSteps[h][t], int32(1<<20+h), func() {
			busy[h] = false
			next[h]++
			signal(h+1, t, 0)
			trySend(h)
		})
	}
	launch = func(s, t, j int) {
		d := parts[s][t][j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := buses[s].Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		last := j == len(need[s][t])-1
		eng.Schedule(end, int32(s<<10+j), func() {
			if last && s < S-1 {
				readyAt[s][t] = eng.Now()
				trySend(s)
			}
			if j == 0 && s > 0 {
				credits[s-1]++
				trySend(s - 1)
			}
			signal(s, t, j+1)
			signal(s, t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0, 0) })
	makespan = eng.Run()
	for s := range buses {
		busWait += buses[s].Wait()
	}
	return makespan, linkWait, busWait
}

// oracleMapper is the mapper's makespan: stages indexed [timestep][global
// layer], ranges partitioning the layers into chips, hops[h][t] hop h's
// occupancy for raster t.
func oracleMapper(stages [][]Stage, ranges [][2]int, hops [][]int64, recvBuf int) int64 {
	T := len(stages)
	if T == 0 {
		return 0
	}
	S := len(ranges)
	if recvBuf < 1 {
		recvBuf = 1
	}

	var eng engine
	buses := make([]event.Resource, S)
	need := make([][][]int8, S)
	for s := 0; s < S; s++ {
		L := ranges[s][1] - ranges[s][0]
		need[s] = make([][]int8, T)
		for t := 0; t < T; t++ {
			need[s][t] = make([]int8, L)
			for j := 0; j < L; j++ {
				if t > 0 {
					need[s][t][j]++
				}
				if j > 0 || s > 0 {
					need[s][t][j]++
				}
			}
		}
	}

	readyAt := make([][]int64, S-1)
	next := make([]int, S-1)
	busy := make([]bool, S-1)
	credits := make([]int, S-1)
	for h := range readyAt {
		readyAt[h] = make([]int64, T)
		for t := range readyAt[h] {
			readyAt[h][t] = -1
		}
		credits[h] = recvBuf
	}

	var launch func(s, t, j int)
	signal := func(s, t, j int) {
		if t >= T || j >= len(need[s][t]) {
			return
		}
		need[s][t][j]--
		if need[s][t][j] <= 0 {
			launch(s, t, j)
		}
	}
	var trySend func(h int)
	trySend = func(h int) {
		t := next[h]
		if t >= T || busy[h] || readyAt[h][t] < 0 || credits[h] == 0 {
			return
		}
		busy[h] = true
		credits[h]--
		eng.Schedule(eng.Now()+hops[h][t], int32(1<<20+h), func() {
			busy[h] = false
			next[h]++
			signal(h+1, t, 0)
			trySend(h)
		})
	}
	launch = func(s, t, j int) {
		d := stages[t][ranges[s][0]+j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := buses[s].Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		last := j == len(need[s][t])-1
		eng.Schedule(end, int32(s<<10+j), func() {
			if last && s < S-1 {
				readyAt[s][t] = eng.Now()
				trySend(s)
			}
			if j == 0 && s > 0 {
				credits[s-1]++
				trySend(s - 1)
			}
			signal(s, t, j+1)
			signal(s, t+1, j)
		})
	}
	eng.Schedule(0, 0, func() { launch(0, 0, 0) })
	return eng.Run()
}
