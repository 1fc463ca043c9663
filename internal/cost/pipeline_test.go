package cost

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPipeline draws a pipeline: 1-4 chips of 1-5 layers, T <= 48
// timesteps, bus phases either absent everywhere or present on about half
// the stages, zero-length stages and hops included (they tie events), and a
// receive buffer of 1-3 rasters.
func randomPipeline(rng *rand.Rand) (chips [][][]Stage, hops [][]int64, recvBuf int) {
	S := 1 + rng.Intn(4)
	T := 1 + rng.Intn(48)
	withBus := rng.Intn(2) == 0
	chips = make([][][]Stage, S)
	for s := range chips {
		L := 1 + rng.Intn(5)
		chips[s] = make([][]Stage, T)
		for t := range chips[s] {
			row := make([]Stage, L)
			for j := range row {
				row[j] = Stage{Sync: int32(rng.Intn(4)), Local: int32(rng.Intn(25))}
				if withBus && rng.Intn(2) == 0 {
					row[j].Bus = int32(1 + rng.Intn(12))
				}
			}
			chips[s][t] = row
		}
	}
	hops = make([][]int64, S-1)
	for h := range hops {
		hops[h] = make([]int64, T)
		for t := range hops[h] {
			hops[h][t] = int64(rng.Intn(30))
		}
	}
	return chips, hops, 1 + rng.Intn(3)
}

// TestMakespanMatchesOracles pins Pipeline to the three makespans it
// replaced, bit for bit: the makespan, each hop's wait and the bus wait
// against the multi-chip oracle, the makespan against the mapper's, and the
// makespan and bus wait against the chip's on one-chip pipelines. One warm
// Pipeline serves every draw, so stale state would show.
func TestMakespanMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Pipeline
	for i := 0; i < 400; i++ {
		chips, hops, recvBuf := randomPipeline(rng)
		got, gotWait, gotBus := p.Makespan(chips, hops, recvBuf)

		want, wantWait, wantBus := oracleShards(chips, hops, recvBuf)
		if got != want || gotBus != wantBus || !reflect.DeepEqual(gotWait, wantWait) {
			t.Fatalf("draw %d: makespan %d, link wait %v, bus wait %d; multi-chip oracle %d, %v, %d",
				i, got, gotWait, gotBus, want, wantWait, wantBus)
		}

		T := len(chips[0])
		stages := make([][]Stage, T)
		var ranges [][2]int
		for s := range chips {
			lo := len(stages[0])
			for t := range stages {
				stages[t] = append(stages[t], chips[s][t]...)
			}
			ranges = append(ranges, [2]int{lo, len(stages[0])})
		}
		if m := oracleMapper(stages, ranges, hops, recvBuf); got != m {
			t.Fatalf("draw %d: makespan %d, mapper oracle %d", i, got, m)
		}

		if len(chips) == 1 {
			var bus int64
			if c := oracleChip(chips[0], &bus); got != c || gotBus != bus {
				t.Fatalf("draw %d: makespan %d bus wait %d, chip oracle %d, %d", i, got, gotBus, c, bus)
			}
		}
	}
}

// TestMakespanBounds checks the pipeline's structural bounds on random
// draws: it never takes longer than running every stage and hop one after
// another, and never beats the uncontended critical path (unlimited buses
// and receive buffers) or any one chip's serialized bus time.
func TestMakespanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var p Pipeline
	for i := 0; i < 400; i++ {
		chips, hops, recvBuf := randomPipeline(rng)
		got, _, _ := p.Makespan(chips, hops, recvBuf)
		if serial := serialSum(chips, hops); got > serial {
			t.Fatalf("draw %d: makespan %d above the serial sum %d", i, got, serial)
		}
		if lb := lowerBound(chips, hops); got < lb {
			t.Fatalf("draw %d: makespan %d below the critical-path bound %d", i, got, lb)
		}
	}
}

// serialSum is every stage's and every hop's cycles end to end.
func serialSum(chips [][][]Stage, hops [][]int64) int64 {
	var sum int64
	for _, grid := range chips {
		for _, row := range grid {
			for _, d := range row {
				sum += int64(d.Sync) + int64(d.Bus) + int64(d.Local)
			}
		}
	}
	for _, h := range hops {
		for _, c := range h {
			sum += c
		}
	}
	return sum
}

// lowerBound is the larger of the longest dependency path — stages after
// their (t-1) and (j-1) predecessors, a chip's first layer after the hop
// delivering its raster, each hop's transfers in timestep order — and the
// busiest chip's total bus time.
func lowerBound(chips [][][]Stage, hops [][]int64) int64 {
	T := len(chips[0])
	var lb int64
	// hopEnd[t]: delivery of raster t into the current chip.
	var hopEnd []int64
	for s, grid := range chips {
		L := len(grid[0])
		end := make([][]int64, T)
		var bus int64
		for t := 0; t < T; t++ {
			end[t] = make([]int64, L)
			for j := 0; j < L; j++ {
				var start int64
				if t > 0 {
					start = end[t-1][j]
				}
				if j > 0 {
					start = max(start, end[t][j-1])
				} else if s > 0 {
					start = max(start, hopEnd[t])
				}
				d := grid[t][j]
				end[t][j] = start + int64(d.Sync) + int64(d.Bus) + int64(d.Local)
				bus += int64(d.Bus)
				lb = max(lb, end[t][j])
			}
		}
		lb = max(lb, bus)
		if s < len(hops) {
			next := make([]int64, T)
			for t := 0; t < T; t++ {
				start := end[t][L-1]
				if t > 0 {
					start = max(start, next[t-1])
				}
				next[t] = start + hops[s][t]
			}
			hopEnd = next
		}
	}
	return lb
}

// TestMakespanDegenerate: empty pipelines take no time.
func TestMakespanDegenerate(t *testing.T) {
	var p Pipeline
	for _, chips := range [][][][]Stage{nil, {{}}, {{{}}}} {
		if m, w, b := p.Makespan(chips, nil, 1); m != 0 || b != 0 || len(w) != max(len(chips)-1, 0) {
			t.Fatalf("%v: makespan %d, link wait %v, bus wait %d", chips, m, w, b)
		}
	}
}

// TestMakespanWarmAllocs: once a Pipeline has run a pipeline of some shape,
// running it again allocates nothing, whatever T x L is — the events are
// plain records on a reused queue, not closures.
func TestMakespanWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Pipeline
	for _, shape := range []struct{ S, T, L int }{{1, 4, 2}, {2, 16, 4}, {4, 48, 8}} {
		chips := make([][][]Stage, shape.S)
		for s := range chips {
			chips[s] = make([][]Stage, shape.T)
			for t := range chips[s] {
				chips[s][t] = make([]Stage, shape.L)
				for j := range chips[s][t] {
					chips[s][t][j] = Stage{Sync: 2, Bus: int32(rng.Intn(3)), Local: int32(1 + rng.Intn(20))}
				}
			}
		}
		hops := make([][]int64, shape.S-1)
		for h := range hops {
			hops[h] = make([]int64, shape.T)
			for t := range hops[h] {
				hops[h][t] = int64(2 + rng.Intn(20))
			}
		}
		run := func() { p.Makespan(chips, hops, 2) }
		run()
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Fatalf("%d chips x %d steps x %d layers: %v allocs per warm call", shape.S, shape.T, shape.L, a)
		}
	}
}
