package cost

// Shards is the multi-chip model of one classification (§3.1.3 tiles one
// dataflow over cores and chips): the whole-chip stage grid cut into
// contiguous layer ranges, one per chip, with a point-to-point hop at each
// cut that carries the boundary raster — the input of the next chip's first
// layer — once per timestep. Every figure is read off the grid alone: a
// chip's stages are its columns, and a hop's traffic at timestep t is the
// receiving layer's Stage.Words priced by Link.Raster. internal/shard runs
// it on the chip's report of each image and the mapper's cost model on a
// candidate's probe grid, so both price hops and the makespan one way.
//
// The zero value is ready for use and keeps its buffers across calls, so a
// warm Shards does not allocate. Its exported fields are valid until the
// next Run. A Shards is not safe for concurrent use.
type Shards struct {
	// Grids[s] is chip s's stage grid: its layer range of every timestep
	// of the whole-chip grid (the rows alias it).
	Grids [][][]Stage
	// Hops[h] is the traffic from chip h to chip h+1, summed over the
	// timesteps in order. WaitCycles is set only by a pipelined Run.
	Hops []LinkStats
	// HopCycles[h][t] is hop h's occupancy for raster t.
	HopCycles [][]int64
	// Makespan is the cycles of one pipeline (Pipeline) over every chip's
	// grid and the hops; BusWait is the cycles stages queued for their
	// chip's bus in it. Both are zero unless Run was pipelined.
	Makespan, BusWait int64

	pipelined bool
	pipe      Pipeline
	rows      [][]Stage
	cycles    []int64
}

// Run models grid, indexed [timestep][layer], cut before each layer in
// cuts (ascending, in (0, layers)) and joined by hops of link. inWords[j] is
// the 64-bit word count of layer j's input vector: the flits a hop into
// layer j zero-checks per raster. When pipelined is set Run also composes
// the chips and hops into one pipeline (Makespan, BusWait, WaitCycles).
func (sh *Shards) Run(grid [][]Stage, inWords, cuts []int, link Link, pipelined bool) {
	T, S, L := len(grid), len(cuts)+1, len(inWords)
	sh.pipelined = pipelined
	sh.Grids = resize(sh.Grids, S)
	sh.rows = resize(sh.rows, S*T)
	lo := 0
	for s := range sh.Grids {
		hi := L
		if s < len(cuts) {
			hi = cuts[s]
		}
		g := sh.rows[s*T : (s+1)*T : (s+1)*T]
		for t, row := range grid {
			g[t] = row[lo:hi:hi]
		}
		sh.Grids[s], lo = g, hi
	}

	sh.Hops = resize(sh.Hops, len(cuts))
	sh.HopCycles = resize(sh.HopCycles, len(cuts))
	sh.cycles = resize(sh.cycles, len(cuts)*T)
	for h, c := range cuts {
		var hop LinkStats
		cyc := sh.cycles[h*T : (h+1)*T : (h+1)*T]
		for t, row := range grid {
			r := link.Raster(int(row[c].Words), inWords[c])
			hop = hop.Add(r)
			cyc[t] = int64(r.Cycles)
		}
		sh.Hops[h], sh.HopCycles[h] = hop, cyc
	}

	sh.Makespan, sh.BusWait = 0, 0
	if pipelined {
		var wait []int64
		sh.Makespan, wait, sh.BusWait = sh.pipe.Makespan(sh.Grids, sh.HopCycles, link.RecvBuf)
		for h, w := range wait {
			sh.Hops[h].WaitCycles = int(w)
		}
	}
}

// Interval returns the last Run's initiation interval in cycles per image:
// the slowest chip — its stages' serial sum, or when pipelined the makespan
// of its grid alone — or the busiest hop, each hop being its own
// point-to-point channel. It bounds the chips' steady-state throughput.
func (sh *Shards) Interval() int64 {
	var iv int64
	for s, g := range sh.Grids {
		var own int64
		if sh.pipelined {
			own, _, _ = sh.pipe.Makespan(sh.Grids[s:s+1], nil, 0)
		} else {
			for _, row := range g {
				for _, st := range row {
					own += int64(st.Sync) + int64(st.Bus) + int64(st.Local)
				}
			}
		}
		iv = max(iv, own)
	}
	for _, h := range sh.Hops {
		iv = max(iv, int64(h.Cycles))
	}
	return iv
}
