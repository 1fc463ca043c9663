package experiments

import (
	"reflect"
	"testing"

	"resparc/internal/bench"
)

// The blocked layer-major runner's block size must be a pure performance
// knob: on every Fig 10 benchmark, both architecture simulators must produce
// the same predictions, the same energy/latency results and bit-identical
// event counters whether the functional simulation runs step-major (a block
// of one timestep, the loop nest of State.Step) or blocked at the default
// length. The snn oracle suite pins the kernels themselves to the CSR
// reference.
func TestBlockedMatchesSteppedOnFig10Benchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Fig 10 benchmark twice")
	}
	cfg := testConfig()
	stepped := cfg
	stepped.BlockSize = 1
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			bp, err := RunPair(b, cfg.MCASize, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := RunPair(b, cfg.MCASize, stepped)
			if err != nil {
				t.Fatal(err)
			}
			if bp.RRep.Predicted != sp.RRep.Predicted {
				t.Errorf("RESPARC prediction %d (blocked) vs %d (stepped)",
					bp.RRep.Predicted, sp.RRep.Predicted)
			}
			if bp.CRep.Predicted != sp.CRep.Predicted {
				t.Errorf("CMOS prediction %d (blocked) vs %d (stepped)",
					bp.CRep.Predicted, sp.CRep.Predicted)
			}
			if !reflect.DeepEqual(bp.RRep.Counts, sp.RRep.Counts) {
				t.Errorf("RESPARC counters diverge:\nblocked %+v\nstepped %+v",
					bp.RRep.Counts, sp.RRep.Counts)
			}
			if !reflect.DeepEqual(bp.CRep.Counts, sp.CRep.Counts) {
				t.Errorf("CMOS counters diverge:\nblocked %+v\nstepped %+v",
					bp.CRep.Counts, sp.CRep.Counts)
			}
			if bp.RESPARC.Energy != sp.RESPARC.Energy || bp.RESPARC.Latency != sp.RESPARC.Latency {
				t.Errorf("RESPARC result diverges: %+v vs %+v", bp.RESPARC, sp.RESPARC)
			}
			if bp.CMOS.Energy != sp.CMOS.Energy || bp.CMOS.Latency != sp.CMOS.Latency {
				t.Errorf("CMOS result diverges: %+v vs %+v", bp.CMOS, sp.CMOS)
			}
		})
	}
}
