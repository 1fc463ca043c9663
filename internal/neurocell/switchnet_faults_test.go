package neurocell

import "testing"

// A killed injection switch drops the traffic injected at it while traffic
// elsewhere still drains, with every packet accounted for as delivered or
// dropped. Revival and out-of-range kills restore full delivery.
func TestSwitchNetKillSwitch(t *testing.T) {
	n, _ := NewSwitchNet(4)
	// mPE 0 is the only mPE attached to switch (0,0) = 0.
	transfers := []Transfer{
		{SrcMPE: 0, DstMPE: 15}, // injects at switch 0
		{SrcMPE: 0, DstMPE: 6},  // injects at switch 0
		{SrcMPE: 5, DstMPE: 6},  // switch 4 -> switch 5: never touches switch 0
	}
	n.KillSwitch(0)
	st, err := n.Simulate(transfers, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 2 {
		t.Fatalf("dropped %d, want 2", st.Dropped)
	}
	if st.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", st.Delivered)
	}
	if st.Delivered+st.Dropped != len(transfers) {
		t.Fatalf("packet conservation broken: %+v", st)
	}
	// Revival restores full delivery on fresh traffic.
	n.ReviveAll()
	st, err = n.Simulate(transfers, EventOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != len(transfers) || st.Dropped != 0 {
		t.Fatalf("after revive: %+v", st)
	}
	// Out-of-range kills are ignored.
	n.KillSwitch(-1)
	n.KillSwitch(100)
	st, err = n.Simulate(transfers, EventOptions{})
	if err != nil || st.Delivered != len(transfers) || st.Dropped != 0 {
		t.Fatalf("out-of-range kill changed delivery: %+v, %v", st, err)
	}
}
