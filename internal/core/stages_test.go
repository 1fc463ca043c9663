package core

import (
	"fmt"
	"math/rand"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/cost"
	"resparc/internal/device"
	"resparc/internal/mapping"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// checkStageWords replays rec through a whole-chip accountant under every
// packet width and gating setting and checks that every stage records the
// nonzero 64-bit words of its layer's input vector.
func checkStageWords(t *testing.T, name string, net *snn.Network, m *mapping.Mapping, rec *rasters) {
	t.Helper()
	for _, pw := range []int{1, 24, 64} {
		for _, ed := range []bool{false, true} {
			opt := DefaultOptions()
			opt.Steps, opt.PacketWidth, opt.EventDriven = len(rec.in), pw, ed
			chip, err := New(net, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			acct, err := chip.NewAccountant(0, len(net.Layers))
			if err != nil {
				t.Fatal(err)
			}
			rec.replay(acct)
			_, rep := acct.Report(0, len(rec.in))
			for step, row := range rep.Stages {
				in := rec.in[step]
				for j, st := range row {
					if j > 0 {
						in = rec.layers[step][j-1]
					}
					zero, total := in.ZeroPackets(cost.PacketWidth)
					if int(st.Words) != total-zero {
						t.Fatalf("%s width %d event-driven %v: stage (%d, %d) records %d nonzero words, input has %d",
							name, pw, ed, step, j, st.Words, total-zero)
					}
				}
			}
		}
	}
}

// TestStageWordsProperty: on the six Fig 10 networks and random small
// topologies, every recorded stage's Words is the nonzero 64-bit word count
// of its layer's input at that step, whatever the chip's packet width and
// gating — the raster a chip-to-chip hop into the layer carries.
func TestStageWordsProperty(t *testing.T) {
	for _, b := range bench.All() {
		net, m, in := fig10Mapping(t, b.Name)
		rec := &rasters{}
		snn.NewState(net).RunBlockedK(in, snn.NewPoissonEncoder(0.8, 7), 6, 0, rec)
		checkStageWords(t, b.Name, net, m, rec)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := randomNet(rng)
		if err != nil {
			continue // un-constructible random draw
		}
		mc := mapping.DefaultConfig()
		mc.MCASize = []int{8, 16, 32}[rng.Intn(3)]
		mc.Tech = device.PCM
		m, err := mapping.Map(net, mc)
		if err != nil {
			t.Fatal(err)
		}
		intensity := tensor.NewVec(net.Input.Size())
		for i := range intensity {
			intensity[i] = rng.Float64()
		}
		rec := &rasters{}
		snn.NewState(net).RunBlockedK(intensity, snn.NewPoissonEncoder(0.7, rng.Int63()), 5+rng.Intn(10), 0, rec)
		checkStageWords(t, fmt.Sprintf("random seed %d", seed), net, m, rec)
	}
}

// TestClassifyRecyclesSessions bounds the steady-state allocations of one
// Classify well below what building a session costs (a State of the whole
// network and its observer), so a Classify that stopped recycling sessions
// fails it.
func TestClassifyRecyclesSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	net, m, in := fig10Mapping(t, "mnist-cnn")
	opt := DefaultOptions()
	opt.Steps = 16
	chip, err := New(net, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc := snn.NewPoissonEncoder(0.8, 3)
	chip.Classify(in, enc)
	steady := testing.AllocsPerRun(20, func() { chip.Classify(in, enc) })
	fresh := testing.AllocsPerRun(5, func() { chip.getSession() })
	t.Logf("steady-state Classify %.0f allocs, fresh session %.0f allocs", steady, fresh)
	if steady >= fresh {
		t.Fatalf("steady-state Classify allocates %.0f times, a fresh session %.0f", steady, fresh)
	}
}

// TestNewAccountantWholeNetworkOnly: the accountant charges every layer, so
// any other range is an error.
func TestNewAccountantWholeNetworkOnly(t *testing.T) {
	net := smallMLP(t, 3)
	chip, err := New(net, mapped(t, net, 16), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	L := len(net.Layers)
	if _, err := chip.NewAccountant(0, L); err != nil {
		t.Fatalf("whole network rejected: %v", err)
	}
	for _, r := range [][2]int{{1, L}, {0, L - 1}, {0, 0}, {-1, L}, {0, L + 1}} {
		if _, err := chip.NewAccountant(r[0], r[1]); err == nil {
			t.Fatalf("range [%d,%d) of %d layers accepted", r[0], r[1], L)
		}
	}
}
