package shard

import (
	"resparc/internal/core"
	"resparc/internal/event"
)

// This file is the pipelined composition of the multi-chip pipeline
// (sim.Options.EventEngine): instead of summing per-shard cycles and
// closed-form link occupancy, the per-(timestep, layer)
// stage durations recorded by each shard's accountant and the per-timestep
// link transfers are composed by one global discrete-event simulation —
// stages overlap across timesteps inside each chip, each chip serializes on
// its own global bus, and every boundary hop is a serialized channel with a
// bounded receive buffer, so inter-chip backpressure (a slow downstream
// shard stalling the sender's pad) emerges from flow control instead of
// being ignored. Energies, counters and predictions are untouched; only
// Cycles/Latency (and the new wait statistics) come from the event clock.

// eventMakespan runs the global pipeline DES over the shards' stage grids.
// Stage (shard s, timestep t, layer j) starts once (s, t-1, j) and
// (s, t, j-1) are done; a shard's first layer additionally waits for the
// upstream hop to deliver raster t. Hop s carries raster t for
// hopSteps[s][t] cycles, transfers strictly in timestep order (the channel
// is one serialized link), and holds at most recvBuf undelivered rasters at
// the receiver — a credit frees when the receiving shard finishes consuming
// a raster (its first-layer stage for that timestep completes).
//
// It returns the pipeline makespan in cycles, each hop's total wait (cycles
// rasters sat at the sender pad after being ready — channel serialization
// plus credit backpressure), and the summed per-chip bus queuing.
func eventMakespan(parts []core.Report, hopSteps [][]int64, recvBuf int) (makespan int64, linkWait []int64, busWait int64) {
	S := len(parts)
	linkWait = make([]int64, S-1)
	if S == 0 || len(parts[0].Stages) == 0 {
		return 0, linkWait, 0
	}
	T := len(parts[0].Stages)
	if recvBuf < 1 {
		recvBuf = 1
	}

	var eng event.Engine
	buses := make([]event.Resource, S) // one global bus per chip
	// need[s][t][j]: outstanding dependencies before stage (s,t,j) may start.
	need := make([][][]int8, S)
	for s := 0; s < S; s++ {
		L := len(parts[s].Stages[0])
		need[s] = make([][]int8, T)
		for t := 0; t < T; t++ {
			need[s][t] = make([]int8, L)
			for j := 0; j < L; j++ {
				if t > 0 {
					need[s][t][j]++
				}
				if j > 0 || s > 0 {
					need[s][t][j]++ // j==0 on s>0 waits for the link delivery
				}
			}
		}
	}

	// Per-hop link state: readyAt[t] is the tick the sender produced raster t
	// (-1 = not yet), next is the lowest unsent timestep, busy marks a
	// transfer in flight, credits the free receive-buffer slots.
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
			signal(h+1, t, 0) // raster delivered: receiver's first layer may start
			trySend(h)
		})
	}
	launch = func(s, t, j int) {
		d := parts[s].Stages[t][j]
		busAt := eng.Now() + int64(d.Sync)
		end := busAt + int64(d.Local)
		if d.Bus > 0 {
			start := buses[s].Acquire(busAt, int64(d.Bus))
			end = start + int64(d.Bus) + int64(d.Local)
		}
		last := j == len(need[s][t])-1
		eng.Schedule(end, int32(s<<10+j), func() {
			if last && s < S-1 {
				// Raster t is on the sender pad.
				readyAt[s][t] = eng.Now()
				trySend(s)
			}
			if j == 0 && s > 0 {
				// Raster consumed: free a receive-buffer slot upstream.
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
