package neurocell

import (
	"math/rand"
	"reflect"
	"testing"
)

func evTransfers(t *testing.T, dim int, pattern string, n int, seed int64) []Transfer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mpes := dim * dim
	out := make([]Transfer, n)
	for i := range out {
		switch pattern {
		case "neighbor":
			src := rng.Intn(mpes)
			out[i] = Transfer{SrcMPE: src, DstMPE: (src + 1) % mpes}
		case "random":
			out[i] = Transfer{SrcMPE: rng.Intn(mpes), DstMPE: rng.Intn(mpes)}
		case "hotspot":
			out[i] = Transfer{SrcMPE: rng.Intn(mpes), DstMPE: 0}
		default:
			t.Fatalf("unknown pattern %q", pattern)
		}
	}
	return out
}

// TestEventSteppedDeliveredEquivalence pins delivery on a fixed grid of
// traffic patterns and loads (the name is kept from when it compared the
// event fabric with a separate stepped engine): the fabric delivers every
// injected packet, whether its FIFOs apply backpressure (DefaultQueueCap)
// or are deep enough never to fill, and never beats the ideal parallel
// bound.
func TestEventSteppedDeliveredEquivalence(t *testing.T) {
	for _, pattern := range []string{"neighbor", "random", "hotspot"} {
		for _, count := range []int{1, 9, 72, 200} {
			tr := evTransfers(t, 4, pattern, count, 7)
			for _, qcap := range []int{DefaultQueueCap, count} {
				n, err := NewSwitchNet(4)
				if err != nil {
					t.Fatal(err)
				}
				st, err := n.Simulate(tr, EventOptions{QueueCap: qcap})
				if err != nil {
					t.Fatalf("%s/%d cap %d: %v", pattern, count, qcap, err)
				}
				if st.Delivered != count {
					t.Errorf("%s/%d cap %d: delivered %d, want %d",
						pattern, count, qcap, st.Delivered, count)
				}
				if st.Cycles < n.IdealCycles(count) {
					t.Errorf("%s/%d cap %d: cycles %d below ideal bound %d",
						pattern, count, qcap, st.Cycles, n.IdealCycles(count))
				}
			}
		}
	}
}

// TestEventDeterministic: the event fabric's full statistics are a pure
// function of the transfer list.
func TestEventDeterministic(t *testing.T) {
	tr := evTransfers(t, 4, "random", 150, 3)
	var ref SwitchStats
	for i := 0; i < 3; i++ {
		n, err := NewSwitchNet(4)
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.Simulate(tr, EventOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = st
			continue
		}
		if !reflect.DeepEqual(st, ref) {
			t.Fatalf("run %d stats %+v differ from first run %+v", i, st, ref)
		}
	}
}

// TestEventHotspotCongestion: all-to-one traffic must show a real gap over
// the contention-free bound, with measurable backpressure (the acceptance
// criterion behind the -fig event NoC rows).
func TestEventHotspotCongestion(t *testing.T) {
	tr := evTransfers(t, 4, "hotspot", 72, 11)
	n, err := NewSwitchNet(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := n.Simulate(tr, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ideal := n.IdealCycles(72)
	if st.Cycles <= 2*ideal {
		t.Fatalf("hotspot cycles %d not meaningfully above ideal %d", st.Cycles, ideal)
	}
	if st.WaitCycles == 0 {
		t.Fatal("hotspot produced zero WaitCycles — backpressure not engaging")
	}
	// Uniform neighbor traffic at the same load should flow far better.
	nb, err := NewSwitchNet(4)
	if err != nil {
		t.Fatal(err)
	}
	stNB, err := nb.Simulate(evTransfers(t, 4, "neighbor", 72, 11), EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stNB.Cycles >= st.Cycles {
		t.Fatalf("neighbor cycles %d >= hotspot cycles %d: congestion not pattern-sensitive",
			stNB.Cycles, st.Cycles)
	}
}

// TestSimulateMatchesOracle pins the cycle loop to the closure-scheduling
// event fabric it replaced (eventnet_oracle_test.go): the full SwitchStats,
// per-switch Forwards included, must be equal on random traffic over dims
// 2-7, 0-299 packets, the default and 1-5 flit FIFOs, and uniform, hotspot
// and neighbor patterns.
func TestSimulateMatchesOracle(t *testing.T) {
	cases := 10000
	if testing.Short() {
		cases = 1000
	}
	rng := rand.New(rand.NewSource(24))
	for c := 0; c < cases; c++ {
		dim := 2 + rng.Intn(6)
		mpes := dim * dim
		count := rng.Intn(300)
		opt := EventOptions{QueueCap: rng.Intn(6)} // 0: DefaultQueueCap
		pattern := []string{"uniform", "hotspot", "neighbor"}[rng.Intn(3)]
		hot := rng.Intn(mpes)
		tr := make([]Transfer, count)
		for i := range tr {
			src := rng.Intn(mpes)
			switch pattern {
			case "uniform":
				tr[i] = Transfer{SrcMPE: src, DstMPE: rng.Intn(mpes)}
			case "hotspot":
				tr[i] = Transfer{SrcMPE: src, DstMPE: hot}
			case "neighbor":
				tr[i] = Transfer{SrcMPE: src, DstMPE: (src + 1) % mpes}
			}
		}
		n, err := NewSwitchNet(dim)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleSimulate(n, tr, opt)
		if err != nil {
			t.Fatalf("case %d (dim %d, %s, %d packets, cap %d): oracle: %v", c, dim, pattern, count, opt.QueueCap, err)
		}
		got, err := n.Simulate(tr, opt)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (dim %d, %s, %d packets, cap %d):\n got  %+v\n want %+v",
				c, dim, pattern, count, opt.QueueCap, got, want)
		}
	}
}
