package neurocell

import (
	"errors"
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
// event fabric with a separate stepped engine): on a live topology the
// fabric delivers every injected packet and drops none, whether its FIFOs
// apply backpressure (DefaultQueueCap) or are deep enough never to fill,
// and never beats the ideal parallel bound.
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
				if st.Delivered != count || st.Dropped != 0 {
					t.Errorf("%s/%d cap %d: delivered %d dropped %d, want %d and 0",
						pattern, count, qcap, st.Delivered, st.Dropped, count)
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

// TestEventDeadSwitchDeadlock: traffic routed toward a dead switch, as its
// destination or as an intermediate hop, backs up behind it and the run
// reports a typed deadlock instead of silently dropping.
func TestEventDeadSwitchDeadlock(t *testing.T) {
	cases := []struct {
		name      string
		dead      int
		tr        []Transfer
		pending   int
		delivered int
	}{
		// mPE 15 attaches to switch 8 (bottom-right corner); kill it and
		// send traffic there from the opposite corner. The deliverable
		// transfer still completes.
		{"destination", 8, []Transfer{
			{SrcMPE: 0, DstMPE: 15},
			{SrcMPE: 1, DstMPE: 15},
			{SrcMPE: 0, DstMPE: 5},
		}, 2, 1},
		// Switch (0,0) to (2,2) takes the column hop first, so the
		// intermediate switch is (0,2) = 6.
		{"intermediate hop", 6, []Transfer{{SrcMPE: 0, DstMPE: 15}}, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := NewSwitchNet(4)
			if err != nil {
				t.Fatal(err)
			}
			n.KillSwitch(c.dead)
			st, err := n.Simulate(c.tr, EventOptions{})
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want *DeadlockError", err)
			}
			if dl.Pending != c.pending {
				t.Errorf("deadlock pending = %d, want %d", dl.Pending, c.pending)
			}
			if len(dl.Stuck) == 0 {
				t.Error("deadlock reports no stuck switches")
			}
			for _, s := range dl.Stuck {
				if s == c.dead {
					t.Error("flits queued inside the dead switch; they must stall upstream")
				}
			}
			if st.Delivered != c.delivered || st.Dropped != 0 {
				t.Errorf("delivered = %d, dropped = %d, want %d/0", st.Delivered, st.Dropped, c.delivered)
			}
		})
	}
}

// TestEventDeadInjectionDrops: a dead injection switch drops at the port —
// the packet never enters the fabric, so no deadlock.
func TestEventDeadInjectionDrops(t *testing.T) {
	tr := []Transfer{
		{SrcMPE: 0, DstMPE: 5},  // injects at switch 0 (dead) — dropped
		{SrcMPE: 15, DstMPE: 5}, // injects at switch 8 — delivered
	}
	n, err := NewSwitchNet(4)
	if err != nil {
		t.Fatal(err)
	}
	n.KillSwitch(0)
	st, err := n.Simulate(tr, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || st.Delivered != 1 {
		t.Errorf("dropped=%d delivered=%d, want 1/1", st.Dropped, st.Delivered)
	}
}
