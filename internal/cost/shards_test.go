package cost

import (
	"math/rand"
	"reflect"
	"testing"

	"resparc/internal/energy"
)

// TestShardsComposesItsParts: on random whole-chip grids and cuts, one warm
// Shards reads each chip's columns, prices each hop's rasters with
// Link.Raster from the receiving layer's Words, and, when pipelined, runs
// the same Pipeline over those parts; a warm Run allocates nothing.
func TestShardsComposesItsParts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	link := DefaultLink(energy.Default45nm())
	var sh Shards
	for i := 0; i < 200; i++ {
		T, L := 1+rng.Intn(20), 1+rng.Intn(8)
		inWords := make([]int, L)
		for j := range inWords {
			inWords[j] = 1 + rng.Intn(40)
		}
		grid := make([][]Stage, T)
		for t := range grid {
			grid[t] = make([]Stage, L)
			for j := range grid[t] {
				grid[t][j] = Stage{Sync: 2, Bus: int32(rng.Intn(3)), Local: int32(rng.Intn(20)), Words: int32(rng.Intn(inWords[j] + 1))}
			}
		}
		var cuts []int
		for c := 1; c < L; c++ {
			if rng.Intn(2) == 0 {
				cuts = append(cuts, c)
			}
		}
		pipelined := rng.Intn(2) == 0
		sh.Run(grid, inWords, cuts, link, pipelined)

		bounds := append(append([]int{0}, cuts...), L)
		if len(sh.Grids) != len(cuts)+1 || len(sh.Hops) != len(cuts) {
			t.Fatalf("draw %d: %d grids, %d hops for cuts %v", i, len(sh.Grids), len(sh.Hops), cuts)
		}
		for s, g := range sh.Grids {
			for step, row := range g {
				if !reflect.DeepEqual(row, grid[step][bounds[s]:bounds[s+1]]) {
					t.Fatalf("draw %d: chip %d step %d columns %v", i, s, step, row)
				}
			}
		}
		for h, c := range cuts {
			var want LinkStats
			for step, row := range grid {
				r := link.Raster(int(row[c].Words), inWords[c])
				want = want.Add(r)
				if sh.HopCycles[h][step] != int64(r.Cycles) {
					t.Fatalf("draw %d: hop %d step %d occupies %d cycles, want %d", i, h, step, sh.HopCycles[h][step], r.Cycles)
				}
			}
			want.WaitCycles = sh.Hops[h].WaitCycles
			if sh.Hops[h] != want {
				t.Fatalf("draw %d: hop %d %+v, want %+v", i, h, sh.Hops[h], want)
			}
		}
		var p Pipeline
		makespan, wait, busWait := p.Makespan(sh.Grids, sh.HopCycles, link.RecvBuf)
		if !pipelined {
			makespan, busWait, wait = 0, 0, make([]int64, len(cuts))
		}
		if sh.Makespan != makespan || sh.BusWait != busWait {
			t.Fatalf("draw %d: makespan %d bus wait %d, want %d %d", i, sh.Makespan, sh.BusWait, makespan, busWait)
		}
		for h, w := range wait {
			if int64(sh.Hops[h].WaitCycles) != w {
				t.Fatalf("draw %d: hop %d waits %d, want %d", i, h, sh.Hops[h].WaitCycles, w)
			}
		}
		if a := testing.AllocsPerRun(5, func() { sh.Run(grid, inWords, cuts, link, pipelined) }); a != 0 {
			t.Fatalf("draw %d: %v allocs per warm Run", i, a)
		}
	}
}
