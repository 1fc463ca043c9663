package shard

import (
	"testing"

	"resparc/internal/bench"
	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/sim"
	"resparc/internal/snn"
)

// outputs records every layer's output spike vector of each timestep.
type outputs [][]*bitvec.Bits

func (o *outputs) ObserveStep(step int, input *bitvec.Bits, layers []*bitvec.Bits) {
	row := make([]*bitvec.Bits, len(layers))
	for j, l := range layers {
		row[j] = l.Clone()
	}
	*o = append(*o, row)
}

// TestHopsPriceBoundaryRasters: every hop's traffic, read off the chip's
// stage grid, is the link's price of the raw boundary raster — the last
// layer of the sending shard, captured from the functional run — summed
// over the timesteps, at the default and at a narrow chip packet width.
func TestHopsPriceBoundaryRasters(t *testing.T) {
	for _, b := range bench.All() {
		for _, pw := range []int{24, 64} {
			chip := chipFor(t, b)
			chip.Opt.PacketWidth = pw
			inputs := benchInputs(t, b, chip.Net, 2)
			enc := factoryFor(7)
			for _, n := range []int{2, 4} {
				multi, err := New(chip, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				_, sreps, err := multi.ClassifyEach(inputs, enc, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range inputs {
					var out outputs
					snn.NewState(chip.Net).RunBlockedK(in, enc(i), chip.Opt.Steps, 0, &out)
					got := sreps[i].Detail.(Report).Hops
					for h, r := range multi.Ranges()[:n-1] {
						var want LinkStats
						for _, row := range out {
							zero, total := row[r.Hi-1].ZeroPackets(cost.PacketWidth)
							want = want.Add(multi.cfg.Link.Raster(total-zero, total))
						}
						if got[h] != want {
							t.Fatalf("%s width %d x%d image %d hop %d: %+v, boundary raster prices to %+v",
								b.Name, pw, n, i, h, got[h], want)
						}
					}
				}
			}
		}
	}
}
