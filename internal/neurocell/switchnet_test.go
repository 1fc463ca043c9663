package neurocell

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSwitchNetGeometry(t *testing.T) {
	n, err := NewSwitchNet(4)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 8: the 4x4 NeuroCell has 9 switches.
	if n.Switches() != 9 {
		t.Fatalf("switches = %d, want 9", n.Switches())
	}
	if _, err := NewSwitchNet(1); err == nil {
		t.Fatal("dim 1 accepted")
	}
	// Every mPE attaches to a valid switch.
	for m := 0; m < 16; m++ {
		s := n.switchOf(m)
		if s < 0 || s >= 9 {
			t.Fatalf("mPE %d -> switch %d", m, s)
		}
	}
}

// Row/column dedicated links: any switch pair is at most 2 route steps
// apart.
func TestSwitchNetRouteLength(t *testing.T) {
	n, _ := NewSwitchNet(4)
	for a := 0; a < n.Switches(); a++ {
		for b := 0; b < n.Switches(); b++ {
			s, hops := a, 0
			for s != b {
				s = n.route(s, b)
				hops++
				if hops > 2 {
					t.Fatalf("route %d->%d took more than 2 hops", a, b)
				}
			}
		}
	}
}

func TestSwitchNetSingleTransfer(t *testing.T) {
	n, _ := NewSwitchNet(4)
	st, err := n.Simulate([]Transfer{{SrcMPE: 0, DstMPE: 15}}, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// 0 attaches to switch (0,0); 15 to switch (2,2): a column hop, a row
	// hop and the egress forward, one cycle each, uncontended.
	if st.Hops != 3 || st.Cycles != 3 {
		t.Fatalf("uncontended corner-to-corner transfer: %+v", st)
	}
}

func TestSwitchNetLocalTransferIsOneHop(t *testing.T) {
	n, _ := NewSwitchNet(4)
	// mPEs 2 and 3 attach to the same switch (x clamps to the grid edge):
	// a single egress forward.
	st, err := n.Simulate([]Transfer{{SrcMPE: 2, DstMPE: 3}}, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 1 || st.Hops != 1 {
		t.Fatalf("local transfer: %+v", st)
	}
}

// Hotspot traffic must serialize at the destination switch; spread traffic
// must beat it and never beat the ideal parallel bound.
func TestSwitchNetContention(t *testing.T) {
	n, _ := NewSwitchNet(4)
	// 32 packets from all mPEs to mPE 15 (switch 8).
	var hot []Transfer
	for i := 0; i < 32; i++ {
		hot = append(hot, Transfer{SrcMPE: i % 15, DstMPE: 15})
	}
	hotStats, err := n.Simulate(hot, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hotStats.Delivered != 32 {
		t.Fatalf("delivered %d", hotStats.Delivered)
	}
	// All egress forwards funnel through switch 8: at least 32 cycles.
	if hotStats.Cycles < 32 {
		t.Fatalf("hotspot finished in %d cycles — impossible", hotStats.Cycles)
	}

	// Neighbor traffic: mPE i -> i+1, spread across switches.
	var uniform []Transfer
	for i := 0; i < 32; i++ {
		uniform = append(uniform, Transfer{SrcMPE: i % 16, DstMPE: (i + 1) % 16})
	}
	uniStats, err := n.Simulate(uniform, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if uniStats.Cycles >= hotStats.Cycles {
		t.Fatalf("uniform (%d) should beat hotspot (%d)", uniStats.Cycles, hotStats.Cycles)
	}
	for _, st := range []SwitchStats{hotStats, uniStats} {
		if st.Cycles < n.IdealCycles(32) {
			t.Fatalf("%d cycles beat the ideal bound %d", st.Cycles, n.IdealCycles(32))
		}
	}
}

func TestSwitchNetValidation(t *testing.T) {
	n, _ := NewSwitchNet(4)
	if _, err := n.Simulate([]Transfer{{SrcMPE: -1, DstMPE: 0}}, EventOptions{}); err == nil {
		t.Fatal("negative mPE accepted")
	}
	if _, err := n.Simulate([]Transfer{{SrcMPE: 0, DstMPE: 16}}, EventOptions{}); err == nil {
		t.Fatal("out-of-array mPE accepted")
	}
	// Switch and mPE ids travel in the 8-bit fields of the Fig 6 address:
	// dim 16 (mPE ids 0..255) is the largest cell that fits.
	if _, err := NewSwitchNet(17); err == nil || !strings.Contains(err.Error(), "16") {
		t.Fatalf("dim 17: err = %v, want an error naming the limit 16", err)
	}
	big, err := NewSwitchNet(16)
	if err != nil {
		t.Fatal(err)
	}
	// mPE 255 attaches to the last switch, (14,14) = 224.
	st, err := big.Simulate([]Transfer{{SrcMPE: 0, DstMPE: 255}}, EventOptions{})
	if err != nil || st.Delivered != 1 || st.Forwards[224] != 1 {
		t.Fatalf("dim 16 corner-to-corner: %+v, %v", st, err)
	}
}

func TestSwitchNetIdealCycles(t *testing.T) {
	n, _ := NewSwitchNet(4)
	if n.IdealCycles(0) != 0 || n.IdealCycles(9) != 1 || n.IdealCycles(10) != 2 {
		t.Fatal("ideal bound wrong")
	}
}

// Property: on a live topology every packet of every traffic pattern is
// delivered, each packet takes 1..3 forwards, and the
// cycle count is at least both the ideal parallel bound and the
// serialization bound of the busiest egress.
func TestSwitchNetConservation(t *testing.T) {
	patterns := []string{"neighbor", "random", "hotspot"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, _ := NewSwitchNet(4)
		count := 1 + rng.Intn(200)
		transfers := evTransfers(t, 4, patterns[rng.Intn(len(patterns))], count, seed)
		egress := map[int]int{}
		for _, tr := range transfers {
			egress[n.switchOf(tr.DstMPE)]++
		}
		st, err := n.Simulate(transfers, EventOptions{})
		if err != nil || st.Delivered != count {
			return false
		}
		busiest := 0
		for _, c := range egress {
			busiest = max(busiest, c)
		}
		if st.Cycles < busiest || st.Cycles < n.IdealCycles(count) {
			return false
		}
		return st.Hops >= count && st.Hops <= 3*count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Reusing a SwitchNet for several simulations must not leak state, not
// even from a congested run in between.
func TestSwitchNetReuse(t *testing.T) {
	n, _ := NewSwitchNet(4)
	tr := evTransfers(t, 4, "random", 50, 5)
	a, err := n.Simulate(tr, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Simulate(evTransfers(t, 4, "hotspot", 120, 6), EventOptions{QueueCap: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := n.Simulate(tr, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("state leaked between runs: %+v vs %+v", a, b)
	}
}
