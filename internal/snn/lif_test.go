package snn

import (
	"math"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/tensor"
)

// A leaky neuron fed below-threshold current must decay back toward rest
// instead of eventually firing.
func TestLIFDecay(t *testing.T) {
	w := tensor.NewMat(1, 1)
	w.Set(0, 0, 0.3)
	l, err := NewDense("lif", 1, 1, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Leak = 0.5
	net, err := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(net)
	in := bitvec.New(1)
	in.Set(0)
	// Steady drive of 0.3 with 50% leak converges to v = 0.3/(0.5) = 0.6 < 1:
	// never fires.
	for step := 0; step < 200; step++ {
		if st.Step(in).Get(0) {
			t.Fatalf("leaky neuron fired at step %d with sub-threshold steady state", step)
		}
	}
	if math.Abs(st.Vmem[0][0]-0.6) > 1e-6 {
		t.Fatalf("steady-state potential %v, want 0.6", st.Vmem[0][0])
	}
	// The same drive without leak integrates without bound and fires.
	l.Leak = 0
	st2 := NewState(net)
	fired := false
	for step := 0; step < 10; step++ {
		if st2.Step(in).Get(0) {
			fired = true
		}
	}
	if !fired {
		t.Fatal("pure IF neuron must fire under steady drive")
	}
}

// Leak only shortens memory: with strong supra-threshold drive LIF and IF
// both fire, LIF no more often than IF.
func TestLIFRateBelowIF(t *testing.T) {
	build := func(leak float64) *State {
		w := tensor.NewMat(1, 1)
		w.Set(0, 0, 0.7)
		l, _ := NewDense("n", 1, 1, w, 1)
		l.Leak = leak
		net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
		return NewState(net)
	}
	ifState, lifState := build(0), build(0.2)
	in := bitvec.New(1)
	in.Set(0)
	ifSpikes, lifSpikes := 0, 0
	for step := 0; step < 100; step++ {
		if ifState.Step(in).Get(0) {
			ifSpikes++
		}
		if lifState.Step(in).Get(0) {
			lifSpikes++
		}
	}
	if lifSpikes == 0 {
		t.Fatal("supra-threshold LIF must fire")
	}
	if lifSpikes > ifSpikes {
		t.Fatalf("LIF fired more (%d) than IF (%d)", lifSpikes, ifSpikes)
	}
}

// Hard reset discards the above-threshold residue: with drive 1.7 and
// threshold 1, subtraction keeps 0.7 while hard reset returns to zero —
// so the hard-reset neuron fires less often.
func TestHardReset(t *testing.T) {
	build := func(hard bool) *State {
		w := tensor.NewMat(1, 1)
		w.Set(0, 0, 0.7)
		l, _ := NewDense("n", 1, 1, w, 1)
		l.HardReset = hard
		net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
		return NewState(net)
	}
	sub, hard := build(false), build(true)
	in := bitvec.New(1)
	in.Set(0)
	subSpikes, hardSpikes := 0, 0
	for step := 0; step < 100; step++ {
		if sub.Step(in).Get(0) {
			subSpikes++
		}
		if hard.Step(in).Get(0) {
			hardSpikes++
		}
	}
	// Subtraction preserves the rate: 0.7 in -> ~70 spikes (one may still
	// be pending in the membrane at the cutoff). Hard reset discards
	// residue: fires every ceil(1/0.7)=2 steps -> 50.
	if subSpikes < 69 || subSpikes > 70 {
		t.Fatalf("reset-by-subtraction fired %d, want ~70", subSpikes)
	}
	if hardSpikes >= subSpikes {
		t.Fatalf("hard reset fired %d >= subtraction %d", hardSpikes, subSpikes)
	}
	if hardSpikes != 50 {
		t.Fatalf("hard reset fired %d, want 50", hardSpikes)
	}
}

// Time-to-first-spike decoding: the neuron with the strongest drive fires
// first and wins even when rate decoding would also pick it.
func TestTTFSPrediction(t *testing.T) {
	w := tensor.NewMat(3, 1)
	w.Set(0, 0, 0.2) // fires at step 5
	w.Set(1, 0, 0.5) // fires at step 2
	w.Set(2, 0, 0.0) // never fires
	l, _ := NewDense("d", 1, 3, w, 1)
	net, _ := NewNetwork("n", tensor.Shape3{H: 1, W: 1, C: 1}, l)
	st := NewState(net)
	res := st.RunBlockedK(tensor.Vec{1}, NewRegularEncoder(1), 12, 0, nil)
	if res.FirstSpike[1] < 0 || res.FirstSpike[0] < 0 {
		t.Fatalf("first spikes not recorded: %v", res.FirstSpike)
	}
	if res.FirstSpike[1] >= res.FirstSpike[0] {
		t.Fatalf("stronger neuron should fire first: %v", res.FirstSpike)
	}
	if res.FirstSpike[2] != -1 {
		t.Fatalf("silent neuron has first spike %d", res.FirstSpike[2])
	}
	if got := res.TTFSPrediction(); got != 1 {
		t.Fatalf("TTFS prediction %d, want 1", got)
	}
	if res.Prediction != 1 {
		t.Fatalf("rate prediction %d, want 1", res.Prediction)
	}
	// All-silent run decodes to -1.
	st2 := NewState(net)
	silent := st2.RunBlockedK(tensor.Vec{0}, NewRegularEncoder(1), 5, 0, nil)
	if silent.TTFSPrediction() != -1 {
		t.Fatalf("silent TTFS = %d", silent.TTFSPrediction())
	}
}
